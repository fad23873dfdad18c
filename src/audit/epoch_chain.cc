#include "audit/epoch_chain.h"

#include <cinttypes>
#include <cstdio>

#include "common/coding.h"
#include "common/crc32.h"
#include "compliance/compliance_log.h"
#include "crypto/hmac.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace complydb {

namespace {

std::string PadNum(uint64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08" PRIu64, n);
  return buf;
}

struct ChainMetrics {
  obs::Counter* sealed;
  obs::Histogram* seal_us;
  obs::Gauge* sealed_seq;
  ChainMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    sealed = reg.GetCounter("audit.epoch.sealed");
    seal_us = reg.GetHistogram("audit.epoch.seal_us");
    sealed_seq = reg.GetGauge("audit.epoch.sealed_seq");
  }
};

ChainMetrics& Cm() {
  static ChainMetrics m;
  return m;
}

uint64_t SplitPoint(uint64_t n) {
  // Largest power of two strictly below n (n >= 2).
  uint64_t k = 1;
  while (k * 2 < n) k *= 2;
  return k;
}

Sha256Digest RootRange(const Sha256Digest* leaves, size_t n) {
  if (n == 1) return leaves[0];
  size_t k = SplitPoint(n);
  return MerkleNodeHash(RootRange(leaves, k), RootRange(leaves + k, n - k));
}

void PathRange(const Sha256Digest* leaves, size_t n, size_t index,
               std::vector<Sha256Digest>* out) {
  if (n == 1) return;
  size_t k = SplitPoint(n);
  if (index < k) {
    PathRange(leaves, k, index, out);
    out->push_back(RootRange(leaves + k, n - k));
  } else {
    PathRange(leaves + k, n - k, index - k, out);
    out->push_back(RootRange(leaves, k));
  }
}

Status FromPath(const Sha256Digest& leaf, uint64_t index, uint64_t count,
                const Sha256Digest* path, size_t path_len, Sha256Digest* out) {
  if (count == 1) {
    if (path_len != 0) {
      return Status::Corruption("merkle path longer than tree depth");
    }
    *out = leaf;
    return Status::OK();
  }
  if (path_len == 0) {
    return Status::Corruption("merkle path shorter than tree depth");
  }
  uint64_t k = SplitPoint(count);
  Sha256Digest sub;
  if (index < k) {
    CDB_RETURN_IF_ERROR(FromPath(leaf, index, k, path, path_len - 1, &sub));
    *out = MerkleNodeHash(sub, path[path_len - 1]);
  } else {
    CDB_RETURN_IF_ERROR(
        FromPath(leaf, index - k, count - k, path, path_len - 1, &sub));
    *out = MerkleNodeHash(path[path_len - 1], sub);
  }
  return Status::OK();
}

void PutDigest(std::string* dst, const Sha256Digest& d) {
  dst->append(reinterpret_cast<const char*>(d.data()), d.size());
}

Status GetDigest(Decoder* dec, Sha256Digest* out) {
  std::string bytes;
  CDB_RETURN_IF_ERROR(dec->GetBytes(out->size(), &bytes));
  std::copy(bytes.begin(), bytes.end(), reinterpret_cast<char*>(out->data()));
  return Status::OK();
}

Status Unframe(Slice in, Slice* payload, size_t* consumed,
               const char* what) {
  if (in.size() < 8) {
    return Status::Corruption(std::string(what) + ": short frame");
  }
  uint32_t len = DecodeFixed32(in.data());
  uint32_t crc = DecodeFixed32(in.data() + 4);
  if (in.size() < 8 + static_cast<size_t>(len)) {
    return Status::Corruption(std::string(what) + ": truncated frame");
  }
  *payload = Slice(in.data() + 8, len);
  if (Crc32(*payload) != crc) {
    return Status::Tampered(std::string(what) + ": frame crc mismatch");
  }
  *consumed = 8 + len;
  return Status::OK();
}

}  // namespace

std::string ChainFileName(uint64_t audit_epoch) {
  return "chain_" + PadNum(audit_epoch);
}

std::string CertFileName(uint64_t audit_epoch) {
  return "cert_" + PadNum(audit_epoch);
}

// ------------------------------------------------------------------ Merkle

Sha256Digest MerkleLeafHash(Slice data) {
  Sha256 h;
  const char prefix = '\x00';
  h.Update(Slice(&prefix, 1));
  h.Update(data);
  return h.Finish();
}

Sha256Digest MerkleNodeHash(const Sha256Digest& l, const Sha256Digest& r) {
  Sha256 h;
  const char prefix = '\x01';
  h.Update(Slice(&prefix, 1));
  h.Update(Slice(reinterpret_cast<const char*>(l.data()), l.size()));
  h.Update(Slice(reinterpret_cast<const char*>(r.data()), r.size()));
  return h.Finish();
}

Sha256Digest MerkleRoot(const std::vector<Sha256Digest>& leaves) {
  if (leaves.empty()) return Sha256::Hash(Slice());
  return RootRange(leaves.data(), leaves.size());
}

std::vector<Sha256Digest> MerkleAuditPath(
    const std::vector<Sha256Digest>& leaves, size_t index) {
  std::vector<Sha256Digest> path;
  if (index < leaves.size()) {
    PathRange(leaves.data(), leaves.size(), index, &path);
  }
  return path;
}

Status MerkleRootFromPath(const Sha256Digest& leaf, uint64_t index,
                          uint64_t count,
                          const std::vector<Sha256Digest>& path,
                          Sha256Digest* out) {
  if (count == 0 || index >= count) {
    return Status::Corruption("merkle leaf index out of range");
  }
  return FromPath(leaf, index, count, path.data(), path.size(), out);
}

Status FrameBoundaries(Slice blob, std::vector<uint64_t>* offsets) {
  offsets->clear();
  size_t pos = 0;
  while (pos < blob.size()) {
    if (blob.size() - pos < 8) {
      return Status::Corruption("sealed range: dangling frame header");
    }
    uint32_t len = DecodeFixed32(blob.data() + pos);
    size_t frame = 8 + static_cast<size_t>(len);
    if (blob.size() - pos < frame) {
      return Status::Corruption("sealed range: truncated frame");
    }
    offsets->push_back(pos);
    pos += frame;
  }
  return Status::OK();
}

Status EpochLeafHashes(Slice blob, std::vector<Sha256Digest>* leaves) {
  std::vector<uint64_t> offsets;
  CDB_RETURN_IF_ERROR(FrameBoundaries(blob, &offsets));
  leaves->assign(offsets.size(), Sha256Digest{});
  if (offsets.empty()) return Status::OK();
  // Domain-separated leaves need the 0x00 prefix in front of each frame;
  // one scratch string per frame keeps the batch API applicable.
  std::vector<std::string> prefixed(offsets.size());
  std::vector<Slice> inputs(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    size_t end = (i + 1 < offsets.size()) ? offsets[i + 1] : blob.size();
    prefixed[i].reserve(1 + (end - offsets[i]));
    prefixed[i].push_back('\x00');
    prefixed[i].append(blob.data() + offsets[i], end - offsets[i]);
    inputs[i] = Slice(prefixed[i]);
  }
  Sha256BatchHash(inputs.data(), inputs.size(), leaves->data());
  return Status::OK();
}

Sha256Digest ChainSeed(uint64_t audit_epoch) {
  std::string buf("complydb-chain-seed");
  PutFixed64(&buf, audit_epoch);
  return Sha256::Hash(buf);
}

Sha256Digest ChainLink(const Sha256Digest& prev, const SealedEpoch& header) {
  Sha256 h;
  const char prefix = '\x02';
  h.Update(Slice(&prefix, 1));
  h.Update(Slice(reinterpret_cast<const char*>(prev.data()), prev.size()));
  std::string buf;
  PutFixed64(&buf, header.seq);
  PutFixed64(&buf, header.audit_epoch);
  PutFixed64(&buf, header.begin_offset);
  PutFixed64(&buf, header.end_offset);
  PutFixed64(&buf, header.record_count);
  PutFixed64(&buf, header.sealed_time);
  PutDigest(&buf, header.merkle_root);
  h.Update(buf);
  return h.Finish();
}

// ---------------------------------------------------------------- records

std::string SealedEpoch::Encode() const {
  std::string framed;
  const size_t frame = BeginFrame(&framed);
  PutFixed64(&framed, seq);
  PutFixed64(&framed, audit_epoch);
  PutFixed64(&framed, begin_offset);
  PutFixed64(&framed, end_offset);
  PutFixed64(&framed, record_count);
  PutFixed64(&framed, sealed_time);
  PutDigest(&framed, merkle_root);
  PutDigest(&framed, chain);
  EndFrame(&framed, frame);
  return framed;
}

Status SealedEpoch::Decode(Slice in, SealedEpoch* out, size_t* consumed) {
  Slice payload;
  CDB_RETURN_IF_ERROR(Unframe(in, &payload, consumed, "epoch chain"));
  Decoder dec(payload);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->seq));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->audit_epoch));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->begin_offset));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->end_offset));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->record_count));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->sealed_time));
  CDB_RETURN_IF_ERROR(GetDigest(&dec, &out->merkle_root));
  CDB_RETURN_IF_ERROR(GetDigest(&dec, &out->chain));
  if (!dec.Done()) return Status::Corruption("epoch chain: trailing bytes");
  return Status::OK();
}

Result<std::vector<SealedEpoch>> ReadEpochChain(const WormStore* worm,
                                                uint64_t audit_epoch) {
  std::vector<SealedEpoch> chain;
  const std::string name = ChainFileName(audit_epoch);
  if (!worm->Exists(name)) return chain;
  std::string blob;
  CDB_RETURN_IF_ERROR(worm->ReadAll(name, &blob));
  Sha256Digest prev = ChainSeed(audit_epoch);
  uint64_t next_begin = 0;
  size_t pos = 0;
  while (pos < blob.size()) {
    SealedEpoch se;
    size_t consumed = 0;
    CDB_RETURN_IF_ERROR(
        SealedEpoch::Decode(Slice(blob.data() + pos, blob.size() - pos), &se,
                            &consumed));
    pos += consumed;
    if (se.seq != chain.size() + 1 || se.audit_epoch != audit_epoch ||
        se.begin_offset != next_begin || se.end_offset < se.begin_offset) {
      return Status::Tampered("epoch chain: headers do not tile L (seq " +
                              std::to_string(se.seq) + ")");
    }
    if (!DigestEqual(se.chain, ChainLink(prev, se))) {
      return Status::Tampered("epoch chain: link digest mismatch at seq " +
                              std::to_string(se.seq));
    }
    prev = se.chain;
    next_begin = se.end_offset;
    chain.push_back(std::move(se));
  }
  return chain;
}

std::string CertificationRecord::Encode() const {
  std::string framed;
  const size_t frame = BeginFrame(&framed);
  PutFixed64(&framed, audit_epoch);
  PutFixed64(&framed, certified_seq);
  PutFixed64(&framed, certified_offset);
  PutDigest(&framed, chain_digest);
  PutDigest(&framed, mac);
  EndFrame(&framed, frame);
  return framed;
}

Status CertificationRecord::Decode(Slice in, CertificationRecord* out,
                                   size_t* consumed) {
  Slice payload;
  CDB_RETURN_IF_ERROR(Unframe(in, &payload, consumed, "certification"));
  Decoder dec(payload);
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->audit_epoch));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->certified_seq));
  CDB_RETURN_IF_ERROR(dec.GetFixed64(&out->certified_offset));
  CDB_RETURN_IF_ERROR(GetDigest(&dec, &out->chain_digest));
  CDB_RETURN_IF_ERROR(GetDigest(&dec, &out->mac));
  if (!dec.Done()) return Status::Corruption("certification: trailing bytes");
  return Status::OK();
}

Sha256Digest CertificationRecord::ComputeMac(
    const std::string& auditor_key) const {
  std::string msg("complydb-cert");
  PutFixed64(&msg, audit_epoch);
  PutFixed64(&msg, certified_seq);
  PutFixed64(&msg, certified_offset);
  PutDigest(&msg, chain_digest);
  return HmacSha256(auditor_key, msg);
}

Result<CertificationRecord> ReadLastCertification(const WormStore* worm,
                                                  uint64_t audit_epoch) {
  const std::string name = CertFileName(audit_epoch);
  if (!worm->Exists(name)) {
    return Status::NotFound("no certification marker for epoch " +
                            std::to_string(audit_epoch));
  }
  std::string blob;
  CDB_RETURN_IF_ERROR(worm->ReadAll(name, &blob));
  CertificationRecord last;
  bool found = false;
  size_t pos = 0;
  while (pos < blob.size()) {
    CertificationRecord rec;
    size_t consumed = 0;
    CDB_RETURN_IF_ERROR(CertificationRecord::Decode(
        Slice(blob.data() + pos, blob.size() - pos), &rec, &consumed));
    pos += consumed;
    last = rec;
    found = true;
  }
  if (!found) {
    return Status::NotFound("certification file empty for epoch " +
                            std::to_string(audit_epoch));
  }
  return last;
}

// ----------------------------------------------------------------- sealer

Status EpochSealer::Attach(uint64_t audit_epoch) {
  auto chain = ReadEpochChain(worm_, audit_epoch);
  if (!chain.ok()) return chain.status();
  std::lock_guard<std::mutex> lock(mu_);
  epoch_ = audit_epoch;
  have_file_ = worm_->Exists(ChainFileName(audit_epoch));
  if (chain.value().empty()) {
    seq_ = 0;
    offset_ = 0;
    head_ = ChainSeed(audit_epoch);
  } else {
    const SealedEpoch& tail = chain.value().back();
    seq_ = tail.seq;
    offset_ = tail.end_offset;
    head_ = tail.chain;
  }
  attached_ = true;
  Cm().sealed_seq->Set(static_cast<int64_t>(seq_));
  return Status::OK();
}

Status EpochSealer::SealThrough(uint64_t durable_offset) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!attached_) {
    return Status::NotSupported("epoch sealer not attached");
  }
  if (durable_offset <= offset_) return Status::OK();
  obs::ScopedSpan span(obs::SpanKind::kEpochSeal, seq_ + 1,
                       durable_offset - offset_);
  obs::ScopedLatencyTimer timer(Cm().seal_us);
  std::string blob;
  CDB_RETURN_IF_ERROR(worm_->ReadAt(LogFileName(epoch_), offset_,
                                    durable_offset - offset_, &blob));
  if (blob.size() != durable_offset - offset_) {
    return Status::IOError("seal: L shorter than seal target");
  }
  std::vector<Sha256Digest> leaves;
  CDB_RETURN_IF_ERROR(EpochLeafHashes(blob, &leaves));
  SealedEpoch se;
  se.seq = seq_ + 1;
  se.audit_epoch = epoch_;
  se.begin_offset = offset_;
  se.end_offset = durable_offset;
  se.record_count = leaves.size();
  se.sealed_time = worm_->clock()->NowMicros();
  se.merkle_root = MerkleRoot(leaves);
  se.chain = ChainLink(head_, se);
  if (!have_file_) {
    CDB_RETURN_IF_ERROR(worm_->Create(ChainFileName(epoch_), 0));
    have_file_ = true;
  }
  // Unflushed on purpose: the seal runs on the epoch leader's critical
  // path and must not pay a second filer round trip. Chain bytes become
  // part of the WORM read set the moment any certify/attach reads the
  // file (ReadAll drains the append handle); a crash before that simply
  // shortens the sealed high-water mark, and the next seal re-covers the
  // gap.
  CDB_RETURN_IF_ERROR(worm_->AppendUnflushed(ChainFileName(epoch_),
                                             se.Encode()));
  seq_ = se.seq;
  offset_ = durable_offset;
  head_ = se.chain;
  Cm().sealed->Inc();
  Cm().sealed_seq->Set(static_cast<int64_t>(seq_));
  return Status::OK();
}

uint64_t EpochSealer::sealed_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t EpochSealer::sealed_offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offset_;
}

Sha256Digest EpochSealer::head() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_;
}

}  // namespace complydb
