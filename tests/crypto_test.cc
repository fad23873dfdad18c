#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/add_hash.h"
#include "crypto/hmac.h"
#include "crypto/seq_hash.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "crypto/sha512.h"
#include "numbered.h"

namespace complydb {
namespace {

using testutil::Numbered;

// ---------- SHA-256 ----------

TEST(Sha256Test, KnownVectors) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      DigestHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShotAtAllSplits) {
  std::string data = "The compliance log contains all new tuples since audit";
  Sha256Digest expect = Sha256::Hash(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(Slice(data.data(), split));
    h.Update(Slice(data.data() + split, data.size() - split));
    EXPECT_EQ(h.Finish(), expect) << "split " << split;
  }
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56/64 byte padding boundaries must all differ
  // and be self-consistent on re-computation.
  for (size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string data(len, 'q');
    EXPECT_EQ(Sha256::Hash(data), Sha256::Hash(data));
    std::string other(len + 1, 'q');
    EXPECT_NE(Sha256::Hash(data), Sha256::Hash(other));
  }
}

// ---------- SHA-256 kernel dispatch ----------

// Pins each available implementation in turn and restores auto dispatch
// even if an assertion fails mid-test.
class Sha256KernelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    ASSERT_TRUE(Sha256ForceImpl(Sha256Impl::kAuto).ok());
  }

  static std::vector<Sha256Impl> SupportedImpls() {
    std::vector<Sha256Impl> impls = {Sha256Impl::kScalar};
    if (Sha256CpuHasShaNi()) impls.push_back(Sha256Impl::kShaNi);
    if (Sha256CpuHasAvx2()) impls.push_back(Sha256Impl::kAvx2);
    return impls;
  }
};

TEST_F(Sha256KernelTest, ForceRejectsUnsupported) {
  if (!Sha256CpuHasShaNi()) {
    EXPECT_FALSE(Sha256ForceImpl(Sha256Impl::kShaNi).ok());
  }
  if (!Sha256CpuHasAvx2()) {
    EXPECT_FALSE(Sha256ForceImpl(Sha256Impl::kAvx2).ok());
  }
  EXPECT_TRUE(Sha256ForceImpl(Sha256Impl::kScalar).ok());
}

TEST_F(Sha256KernelTest, AllImplsMatchScalarAtBoundaryLengths) {
  // Padding boundaries (55/56/64/65), block multiples, and a multi-MB
  // buffer spanning many blocks.
  std::vector<size_t> lengths = {0,  1,  3,   55,  56,  57,   63,  64,
                                 65, 127, 128, 129, 1000, 4096, 8192};
  lengths.push_back(3u << 20);  // 3 MiB

  Random rng(20260806);
  std::vector<std::string> inputs;
  for (size_t len : lengths) inputs.push_back(rng.Bytes(len));
  for (int i = 0; i < 32; ++i) inputs.push_back(rng.Bytes(rng.Uniform(2048)));

  ASSERT_TRUE(Sha256ForceImpl(Sha256Impl::kScalar).ok());
  std::vector<Sha256Digest> expect;
  for (const auto& in : inputs) expect.push_back(Sha256::Hash(in));

  for (Sha256Impl impl : SupportedImpls()) {
    ASSERT_TRUE(Sha256ForceImpl(impl).ok()) << Sha256ImplName(impl);
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(Sha256::Hash(inputs[i]), expect[i])
          << Sha256ImplName(impl) << " len " << inputs[i].size();
    }
  }
}

TEST_F(Sha256KernelTest, IncrementalMatchesAcrossImpls) {
  Random rng(7);
  std::string data = rng.Bytes(100000);
  ASSERT_TRUE(Sha256ForceImpl(Sha256Impl::kScalar).ok());
  Sha256Digest expect = Sha256::Hash(data);
  for (Sha256Impl impl : SupportedImpls()) {
    ASSERT_TRUE(Sha256ForceImpl(impl).ok());
    Sha256 h;
    size_t off = 0;
    while (off < data.size()) {
      size_t take = std::min<size_t>(1 + rng.Uniform(9000),
                                     data.size() - off);
      h.Update(Slice(data.data() + off, take));
      off += take;
    }
    EXPECT_EQ(h.Finish(), expect) << Sha256ImplName(impl);
  }
}

TEST_F(Sha256KernelTest, BatchMatchesSingleBufferHashing) {
  Random rng(99);
  // Batch sizes around the 8-lane AVX2 grouping: 0, 1, partial group,
  // exact group, group+1, two groups+1.
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 17u}) {
    std::vector<std::string> bufs;
    std::vector<Slice> slices;
    for (size_t i = 0; i < n; ++i) {
      // Mixed lengths, including empty and multi-block.
      size_t len = (i % 3 == 0) ? i * 37 : rng.Uniform(10000);
      bufs.push_back(rng.Bytes(len));
    }
    for (const auto& b : bufs) slices.emplace_back(b);

    std::vector<Sha256Digest> out(n);
    Sha256BatchHash(slices.data(), n, out.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], Sha256::Hash(slices[i])) << "n " << n << " i " << i;
    }
    EXPECT_EQ(Sha256BatchHash(slices),
              std::vector<Sha256Digest>(out.begin(), out.end()));
  }
}

TEST_F(Sha256KernelTest, BatchMatchesUnderEveryForcedImpl) {
  Random rng(123);
  std::vector<std::string> bufs;
  std::vector<Slice> slices;
  for (size_t i = 0; i < 13; ++i) bufs.push_back(rng.Bytes(rng.Uniform(5000)));
  for (const auto& b : bufs) slices.emplace_back(b);

  ASSERT_TRUE(Sha256ForceImpl(Sha256Impl::kScalar).ok());
  std::vector<Sha256Digest> expect(bufs.size());
  Sha256BatchHash(slices.data(), slices.size(), expect.data());

  for (Sha256Impl impl : SupportedImpls()) {
    ASSERT_TRUE(Sha256ForceImpl(impl).ok());
    std::vector<Sha256Digest> out(bufs.size());
    Sha256BatchHash(slices.data(), slices.size(), out.data());
    EXPECT_EQ(out, expect) << Sha256ImplName(impl);
  }
}

// ---------- SHA-512 ----------

std::string Sha512Hex(Slice s) {
  auto d = Sha512::Hash(s);
  return ToHex(Slice(reinterpret_cast<const char*>(d.data()), d.size()));
}

TEST(Sha512Test, KnownVectors) {
  EXPECT_EQ(Sha512Hex(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(Sha512Hex("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, IncrementalMatchesOneShot) {
  std::string data(300, '\0');
  Random rng(42);
  for (auto& c : data) c = static_cast<char>(rng.Next());
  auto expect = Sha512::Hash(data);
  for (size_t split : {0u, 1u, 127u, 128u, 129u, 300u}) {
    Sha512 h;
    h.Update(Slice(data.data(), split));
    h.Update(Slice(data.data() + split, data.size() - split));
    EXPECT_EQ(h.Finish(), expect) << "split " << split;
  }
}

// ---------- ADD_HASH ----------

TEST(AddHashTest, EmptySetsEqual) {
  EXPECT_EQ(AddHash(), AddHash());
}

TEST(AddHashTest, CommutativeUnderPermutation) {
  std::vector<std::string> elems = {"t1", "t2", "t3", "t4", "t5"};
  AddHash forward;
  for (const auto& e : elems) forward.Add(e);

  std::sort(elems.rbegin(), elems.rend());
  AddHash reversed;
  for (const auto& e : elems) reversed.Add(e);

  EXPECT_EQ(forward, reversed);
}

TEST(AddHashTest, IncrementalEqualsBatch) {
  // H(Ds ∪ L) computed by merging two accumulators equals folding all
  // elements into one — the auditor relies on this.
  AddHash ds, log, merged;
  for (int i = 0; i < 50; ++i) {
    std::string e = Numbered("snapshot-tuple-", i);
    ds.Add(e);
    merged.Add(e);
  }
  for (int i = 0; i < 30; ++i) {
    std::string e = Numbered("log-tuple-", i);
    log.Add(e);
    merged.Add(e);
  }
  AddHash combined = ds;
  combined.Merge(log);
  EXPECT_EQ(combined, merged);
}

TEST(AddHashTest, RemoveInvertsAdd) {
  AddHash h;
  h.Add("alpha");
  h.Add("beta");
  h.Add("gamma");
  h.Remove("beta");
  AddHash expect;
  expect.Add("alpha");
  expect.Add("gamma");
  EXPECT_EQ(h, expect);
}

TEST(AddHashTest, RemoveAllYieldsEmpty) {
  AddHash h;
  for (int i = 0; i < 20; ++i) h.Add(Numbered("e", i));
  for (int i = 19; i >= 0; --i) h.Remove(Numbered("e", i));
  EXPECT_EQ(h, AddHash());
}

TEST(AddHashTest, DetectsDifferentMultisets) {
  AddHash a, b;
  a.Add("x");
  b.Add("y");
  EXPECT_NE(a, b);

  // Multiset sensitivity: {x, x} != {x}.
  AddHash two_x;
  two_x.Add("x");
  two_x.Add("x");
  EXPECT_NE(two_x, a);
}

TEST(AddHashTest, SerializeRoundTrip) {
  AddHash h;
  h.Add("tuple-a");
  h.Add("tuple-b");
  std::string blob = h.Serialize();
  ASSERT_EQ(blob.size(), 64u);
  auto back = AddHash::Deserialize(blob);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), h);
}

TEST(AddHashTest, DeserializeRejectsBadSize) {
  EXPECT_FALSE(AddHash::Deserialize("short").ok());
}

// Property sweep: random multisets hashed in two random orders agree;
// differing multisets disagree.
class AddHashPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AddHashPropertyTest, PermutationInvariance) {
  Random rng(GetParam());
  size_t n = 1 + rng.Uniform(64);
  std::vector<std::string> elems;
  for (size_t i = 0; i < n; ++i) elems.push_back(rng.Bytes(1 + rng.Uniform(40)));

  AddHash a;
  for (const auto& e : elems) a.Add(e);

  // Shuffle.
  for (size_t i = elems.size(); i > 1; --i) {
    std::swap(elems[i - 1], elems[rng.Uniform(i)]);
  }
  AddHash b;
  for (const auto& e : elems) b.Add(e);
  EXPECT_EQ(a, b);

  // Perturb one element: hash must change.
  AddHash c = b;
  c.Remove(elems[0]);
  c.Add(elems[0] + "!");
  EXPECT_NE(c, a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddHashPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ---------- SeqHash ----------

TEST(SeqHashTest, EmptySequence) {
  EXPECT_EQ(SeqHash::Compute({}), SeqHash::Empty());
}

TEST(SeqHashTest, OrderSensitive) {
  std::vector<std::string> ab = {"a", "b"};
  std::vector<std::string> ba = {"b", "a"};
  EXPECT_NE(SeqHash::ComputeOwned(ab), SeqHash::ComputeOwned(ba));
}

TEST(SeqHashTest, MatchesRecursiveDefinition) {
  // Hs(r1, r2) = H(h(r1) || Hs(r2)) ; Hs(r2) = H(h(r2) || 0^32).
  auto h = [](Slice s) { return Sha256::Hash(s); };
  auto cat = [](const Sha256Digest& x, const Sha256Digest& y) {
    Sha256 outer;
    outer.Update(Slice(reinterpret_cast<const char*>(x.data()), x.size()));
    outer.Update(Slice(reinterpret_cast<const char*>(y.data()), y.size()));
    return outer.Finish();
  };
  Sha256Digest hs2 = cat(h("r2"), SeqHash::Empty());
  Sha256Digest hs12 = cat(h("r1"), hs2);
  std::vector<std::string> elems = {"r1", "r2"};
  EXPECT_EQ(SeqHash::ComputeOwned(elems), hs12);
}

TEST(SeqHashTest, SensitiveToEveryElement) {
  std::vector<std::string> base = {"t0", "t1", "t2", "t3"};
  auto expect = SeqHash::ComputeOwned(base);
  for (size_t i = 0; i < base.size(); ++i) {
    auto mutated = base;
    mutated[i] += "x";
    EXPECT_NE(SeqHash::ComputeOwned(mutated), expect) << "element " << i;
  }
  auto truncated = base;
  truncated.pop_back();
  EXPECT_NE(SeqHash::ComputeOwned(truncated), expect);
}

// ---------- HMAC ----------

TEST(HmacTest, Rfc4231Vector1) {
  std::string key(20, '\x0b');
  auto mac = HmacSha256(key, "Hi There");
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Vector2) {
  auto mac = HmacSha256("Jefe", "what do ya want for nothing?");
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  std::string key(131, '\xaa');
  auto mac = HmacSha256(
      key, "Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDiffer) {
  EXPECT_FALSE(DigestEqual(HmacSha256("auditor-key-1", "snapshot"),
                           HmacSha256("auditor-key-2", "snapshot")));
  EXPECT_TRUE(DigestEqual(HmacSha256("k", "m"), HmacSha256("k", "m")));
}

}  // namespace
}  // namespace complydb
