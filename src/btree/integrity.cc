#include "btree/integrity.h"

#include <functional>

#include "btree/tuple.h"
#include "storage/page.h"

namespace complydb {

namespace {

struct Walker {
  BufferCache* cache;
  uint32_t tree_id;
  TreeIntegrityReport* report;
  std::vector<PageId> leaves_in_order;

  void Problem(PageId pgno, const std::string& what) {
    report->problems.push_back("page " + std::to_string(pgno) + ": " + what);
  }

  // Verifies the subtree under `pgno` (expected at `level`), reporting the
  // subtree's minimum (key, start) through min_key/min_start.
  Status Visit(PageId pgno, int expected_level, std::string* min_key,
               uint64_t* min_start, bool* has_min) {
    *has_min = false;
    Page* page = nullptr;
    Status fetch = cache->FetchPage(pgno, &page);
    if (!fetch.ok()) {
      Problem(pgno, "unreadable: " + fetch.ToString());
      return Status::OK();
    }
    Page copy = *page;  // verify a stable copy; release the pin early
    cache->Unpin(pgno, false);

    Status st = copy.CheckStructure();
    if (!st.ok()) {
      Problem(pgno, st.ToString());
      return Status::OK();
    }
    if (copy.tree_id() != tree_id) {
      Problem(pgno, "wrong tree id");
      return Status::OK();
    }
    if (expected_level >= 0 && copy.level() != expected_level) {
      Problem(pgno, "level " + std::to_string(copy.level()) + " != expected " +
                        std::to_string(expected_level));
    }

    if (copy.type() == PageType::kBtreeLeaf) {
      ++report->leaf_pages;
      leaves_in_order.push_back(pgno);
      std::string prev_key;
      uint64_t prev_start = 0;
      bool has_prev = false;
      for (uint16_t i = 0; i < copy.slot_count(); ++i) {
        TupleData t;
        Status ds = DecodeTuple(copy.RecordAt(i), &t);
        if (!ds.ok()) {
          Problem(pgno, "slot " + std::to_string(i) + ": " + ds.ToString());
          continue;
        }
        ++report->tuple_count;
        if (t.order_no >= copy.next_order_number()) {
          Problem(pgno, "slot " + std::to_string(i) +
                            ": order number beyond page counter");
        }
        if (has_prev &&
            CompareVersion(prev_key, prev_start, t.key, t.start) >= 0) {
          Problem(pgno, "slot " + std::to_string(i) +
                            ": tuples out of (key, start) order");
        }
        if (i == 0) {
          *min_key = t.key;
          *min_start = t.start;
          *has_min = true;
        }
        prev_key = t.key;
        prev_start = t.start;
        has_prev = true;
      }
      return Status::OK();
    }

    if (copy.type() != PageType::kBtreeInternal) {
      Problem(pgno, "unexpected page type");
      return Status::OK();
    }
    ++report->internal_pages;
    if (copy.slot_count() == 0) {
      Problem(pgno, "empty internal node");
      return Status::OK();
    }

    std::string prev_sep_key;
    uint64_t prev_sep_start = 0;
    for (uint16_t i = 0; i < copy.slot_count(); ++i) {
      IndexEntry e;
      Status ds = DecodeIndexEntry(copy.RecordAt(i), &e);
      if (!ds.ok()) {
        Problem(pgno, "entry " + std::to_string(i) + ": " + ds.ToString());
        continue;
      }
      // Entry 0 is -infinity (see InternalFindChild): its stored key is
      // not compared against entry 1.
      if (i > 1 && CompareVersion(prev_sep_key, prev_sep_start, e.key,
                                  e.start) >= 0) {
        Problem(pgno, "entry " + std::to_string(i) +
                          ": separators out of order");
      }

      std::string child_min_key;
      uint64_t child_min_start = 0;
      bool child_has_min = false;
      CDB_RETURN_IF_ERROR(Visit(e.child, copy.level() - 1, &child_min_key,
                                &child_min_start, &child_has_min));
      if (child_has_min) {
        // Routing validity: separator <= child's minimum. The first entry
        // acts as -infinity (lookups clamp to it), so its key is not
        // routing-relevant and is exempt.
        if (i > 0 &&
            CompareVersion(e.key, e.start, child_min_key, child_min_start) >
                0) {
          Problem(pgno, "entry " + std::to_string(i) +
                            ": separator exceeds child minimum (Fig. 2(c) "
                            "style tampering)");
        }
        // ...and the child's minimum must sort before the next separator.
        if (i + 1 < copy.slot_count()) {
          IndexEntry next;
          if (DecodeIndexEntry(copy.RecordAt(i + 1), &next).ok() &&
              CompareVersion(child_min_key, child_min_start, next.key,
                             next.start) >= 0) {
            Problem(pgno, "entry " + std::to_string(i) +
                              ": child minimum reaches into next separator");
          }
        }
        if (i == 0) {
          *min_key = child_min_key;
          *min_start = child_min_start;
          *has_min = true;
        }
      }
      prev_sep_key = e.key;
      prev_sep_start = e.start;
    }
    return Status::OK();
  }
};

}  // namespace

Result<TreeIntegrityReport> CheckTreeIntegrity(BufferCache* cache,
                                               uint32_t tree_id, PageId root) {
  TreeIntegrityReport report;
  Walker walker{cache, tree_id, &report, {}};

  std::string min_key;
  uint64_t min_start = 0;
  bool has_min = false;
  CDB_RETURN_IF_ERROR(walker.Visit(root, -1, &min_key, &min_start, &has_min));

  // The leaf sibling chain must visit exactly the in-order leaves.
  for (size_t i = 0; i < walker.leaves_in_order.size(); ++i) {
    PageId pgno = walker.leaves_in_order[i];
    Page* page = nullptr;
    Status fetch = cache->FetchPage(pgno, &page);
    if (!fetch.ok()) continue;  // already reported
    PageId sibling = page->right_sibling();
    cache->Unpin(pgno, false);
    PageId expected = (i + 1 < walker.leaves_in_order.size())
                          ? walker.leaves_in_order[i + 1]
                          : kInvalidPage;
    if (sibling != expected) {
      walker.Problem(pgno, "sibling link " + std::to_string(sibling) +
                               " != in-order successor " +
                               std::to_string(expected));
    }
  }
  return report;
}

}  // namespace complydb
