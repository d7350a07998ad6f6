#include "timing_fs.h"

#include <chrono>

namespace elsmbench {

using elsm::Result;
using elsm::Status;

namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

FileKind KindOf(std::string_view name) {
  const size_t slash = name.rfind('/');
  const std::string_view base =
      slash == std::string_view::npos ? name : name.substr(slash + 1);
  if (base == "wal") return FileKind::kWal;
  if (EndsWith(base, ".sst") || EndsWith(base, ".tree")) return FileKind::kTable;
  if (base.rfind("MANIFEST", 0) == 0 || base.rfind("EDITS-", 0) == 0) {
    return FileKind::kManifest;
  }
  return FileKind::kOther;
}

const char* FileKindName(FileKind kind) {
  switch (kind) {
    case FileKind::kWal:
      return "wal";
    case FileKind::kTable:
      return "table";
    case FileKind::kManifest:
      return "manifest";
    default:
      return "other";
  }
}

const char* FsOpName(FsOp op) {
  static constexpr const char* kNames[] = {
      "write", "append", "read", "multiread", "readall",
      "blob",  "sync",   "syncdir", "delete",  "meta"};
  return op < FsOp::kCount ? kNames[size_t(op)] : "facade";
}

uint64_t Tracer::NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

uint64_t FsCounters::BytesWritten() const {
  uint64_t total = 0;
  for (const auto& row : cells) {
    total += row[size_t(FsOp::kWrite)].bytes + row[size_t(FsOp::kAppend)].bytes;
  }
  return total;
}

TimingFs::Call::Call(const TimingFs& fs, FsOp op, FileKind kind)
    : fs_(fs), op_(op), kind_(kind) {
  timed_ = fs_.tracer_ != nullptr && fs_.tracer_->active();
  if (timed_) start_ns_ = Tracer::NowNs();
}

void TimingFs::Call::Finish(uint64_t bytes, uint32_t width) {
  FsCounters::Cell& cell = fs_.counters_.cells[size_t(kind_)][size_t(op_)];
  ++cell.calls;
  cell.bytes += bytes;
  if (!timed_) return;
  Span span;
  span.op = fs_.tracer_->current_op;
  span.start_ns = start_ns_;
  span.end_ns = Tracer::NowNs();
  span.bytes = bytes;
  span.width = width;
  span.fs_op = op_;
  span.kind = kind_;
  fs_.tracer_->spans.push_back(span);
}

TimingFs::TimingFs(std::shared_ptr<elsm::storage::Fs> base, Tracer* tracer)
    : Fs(base->enclave_shared()), base_(std::move(base)), tracer_(tracer) {}

Status TimingFs::Write(const std::string& name, std::string contents) {
  Call call(*this, FsOp::kWrite, KindOf(name));
  const uint64_t bytes = contents.size();
  Status s = base_->Write(name, std::move(contents));
  call.Finish(bytes);
  return s;
}

Status TimingFs::Append(const std::string& name, std::string_view data) {
  Call call(*this, FsOp::kAppend, KindOf(name));
  Status s = base_->Append(name, data);
  call.Finish(data.size());
  return s;
}

Result<std::string> TimingFs::Read(const std::string& name, uint64_t offset,
                                   uint64_t len) const {
  Call call(*this, FsOp::kRead, KindOf(name));
  Result<std::string> r = base_->Read(name, offset, len);
  call.Finish(r.ok() ? r.value().size() : 0);
  return r;
}

std::vector<Result<std::string>> TimingFs::MultiRead(
    const std::vector<elsm::storage::ReadRequest>& requests) const {
  Call call(*this, FsOp::kMultiRead,
            requests.empty() ? FileKind::kOther : KindOf(requests[0].name));
  std::vector<Result<std::string>> out = base_->MultiRead(requests);
  uint64_t bytes = 0;
  for (const Result<std::string>& r : out) {
    if (r.ok()) bytes += r.value().size();
  }
  call.Finish(bytes, uint32_t(requests.size()));
  return out;
}

Result<std::string> TimingFs::ReadAll(const std::string& name) const {
  Call call(*this, FsOp::kReadAll, KindOf(name));
  Result<std::string> r = base_->ReadAll(name);
  call.Finish(r.ok() ? r.value().size() : 0);
  return r;
}

Result<uint64_t> TimingFs::FileSize(const std::string& name) const {
  Call call(*this, FsOp::kMeta, KindOf(name));
  Result<uint64_t> r = base_->FileSize(name);
  call.Finish(0);
  return r;
}

Status TimingFs::Delete(const std::string& name) {
  Call call(*this, FsOp::kDelete, KindOf(name));
  Status s = base_->Delete(name);
  call.Finish(0);
  return s;
}

Status TimingFs::Rename(const std::string& from, const std::string& to) {
  Call call(*this, FsOp::kMeta, KindOf(to));
  Status s = base_->Rename(from, to);
  call.Finish(0);
  return s;
}

Status TimingFs::Truncate(const std::string& name, uint64_t size) {
  Call call(*this, FsOp::kDelete, KindOf(name));
  Status s = base_->Truncate(name, size);
  call.Finish(0);
  return s;
}

Status TimingFs::Sync(const std::string& name) {
  Call call(*this, FsOp::kSync, KindOf(name));
  Status s = base_->Sync(name);
  call.Finish(0);
  return s;
}

Status TimingFs::SyncDir() {
  Call call(*this, FsOp::kSyncDir, FileKind::kOther);
  Status s = base_->SyncDir();
  call.Finish(0);
  return s;
}

bool TimingFs::Exists(const std::string& name) const {
  Call call(*this, FsOp::kMeta, KindOf(name));
  const bool exists = base_->Exists(name);
  call.Finish(0);
  return exists;
}

std::vector<std::string> TimingFs::List(std::string_view prefix) const {
  Call call(*this, FsOp::kMeta, FileKind::kOther);
  std::vector<std::string> names = base_->List(prefix);
  call.Finish(0);
  return names;
}

std::shared_ptr<const std::string> TimingFs::Blob(
    const std::string& name) const {
  Call call(*this, FsOp::kBlob, KindOf(name));
  std::shared_ptr<const std::string> blob = base_->Blob(name);
  call.Finish(blob != nullptr ? blob->size() : 0);
  return blob;
}

bool TimingFs::Corrupt(const std::string& name, size_t offset, uint8_t mask) {
  Call call(*this, FsOp::kMeta, KindOf(name));
  const bool done = base_->Corrupt(name, offset, mask);
  call.Finish(0);
  return done;
}

void TimingFs::set_enclave(std::shared_ptr<elsm::sgx::Enclave> enclave) {
  base_->set_enclave(enclave);
  Fs::set_enclave(std::move(enclave));
}

}  // namespace elsmbench
