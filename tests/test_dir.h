#ifndef COMPLYDB_TESTS_TEST_DIR_H_
#define COMPLYDB_TESTS_TEST_DIR_H_

// Per-test scratch directories under ::testing::TempDir().
//
// A fixed name like "<TempDir>/cdb_Basic" is shared by every process that
// runs the same test at once (ctest -j with repeated runs, two build trees
// testing side by side), so one run's remove_all lands in another's
// database. TestDir appends the process id to the name, clears any
// leftover at that path, and removes the directory when it is destroyed.
//
// Fixtures hold a TestDir as their *first* data member, so it is destroyed
// after every database or file the fixture still owns has been closed:
//
//   class FooTest : public ::testing::Test {
//    protected:
//     void SetUp() override { dir_ = test_dir_.Reset("foo_" + TestName()); }
//     testutil::TestDir test_dir_;
//     std::string dir_;
//     ...
//   };

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace complydb {
namespace testutil {

/// The running test's name (without the suite), for directory names.
inline std::string TestName() {
  return ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

class TestDir {
 public:
  TestDir() = default;
  explicit TestDir(const std::string& name) { Reset(name); }
  ~TestDir() { Remove(); }

  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  /// Removes the current directory (if any) and points this at a fresh,
  /// empty "<TempDir>/<name>.<pid>". Returns the path.
  const std::string& Reset(const std::string& name) {
    Remove();  // the previous directory
    path_ = ::testing::TempDir() + "/" + name + "." +
            std::to_string(::getpid());
    Remove();  // a leftover of an earlier process with the same pid
    std::filesystem::create_directories(path_);
    return path_;
  }

  const std::string& path() const { return path_; }

 private:
  void Remove() {
    if (path_.empty()) return;
    std::error_code ec;  // best effort: a test must not fail on cleanup
    std::filesystem::remove_all(path_, ec);
  }

  std::string path_;
};

}  // namespace testutil
}  // namespace complydb

#endif  // COMPLYDB_TESTS_TEST_DIR_H_
