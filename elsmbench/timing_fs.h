// TimingFs — a storage::Fs decorator that forwards every virtual to the
// backend it wraps and attributes each call to a file kind (WAL, table or
// tree sidecar, manifest/EDITS log). It always counts calls and bytes; with
// a Tracer enabled it also times each call made inside a measured facade op
// and records it as a child span of that op.
//
// The benchmark runs one closed-loop client thread with inline flush and
// compaction, so every call arrives on that thread; the counters and the
// span buffer are therefore plain fields.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/fs.h"

namespace elsmbench {

enum class FileKind : uint8_t { kWal, kTable, kManifest, kOther, kCount };
FileKind KindOf(std::string_view name);
const char* FileKindName(FileKind kind);

enum class FsOp : uint8_t {
  kWrite,
  kAppend,
  kRead,
  kMultiRead,
  kReadAll,
  kBlob,
  kSync,
  kSyncDir,
  kDelete,  // Delete, Truncate: the calls that free file blocks
  kMeta,    // FileSize, Rename, Exists, List, Corrupt
  kCount
};
const char* FsOpName(FsOp op);

// One timed interval. `op` is the 1-based index of the facade op it belongs
// to; a facade span has `fs_op == FsOp::kCount`, a storage span names the
// Fs method and the file kind it touched. MultiRead spans carry their
// request count in `width`.
struct Span {
  uint64_t op = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t bytes = 0;
  uint32_t width = 0;
  uint8_t facade = 0;  // the benchmark's op type for facade spans
  FsOp fs_op = FsOp::kCount;
  FileKind kind = FileKind::kOther;
};

// In-memory span buffer. Spans are recorded only while `enabled` and while
// the benchmark has an op open (`current_op != 0`).
struct Tracer {
  bool enabled = false;
  uint64_t current_op = 0;
  std::vector<Span> spans;

  static uint64_t NowNs();
  bool active() const { return enabled && current_op != 0; }
};

struct FsCounters {
  struct Cell {
    uint64_t calls = 0;
    uint64_t bytes = 0;
  };
  std::array<std::array<Cell, size_t(FsOp::kCount)>, size_t(FileKind::kCount)>
      cells{};
  uint64_t BytesWritten() const;
};

class TimingFs : public elsm::storage::Fs {
 public:
  // `tracer` may be null (counting only); it must outlive this object.
  TimingFs(std::shared_ptr<elsm::storage::Fs> base, Tracer* tracer);

  elsm::Status Write(const std::string& name, std::string contents) override;
  elsm::Status Append(const std::string& name, std::string_view data) override;
  elsm::Result<std::string> Read(const std::string& name, uint64_t offset,
                                 uint64_t len) const override;
  std::vector<elsm::Result<std::string>> MultiRead(
      const std::vector<elsm::storage::ReadRequest>& requests) const override;
  elsm::Result<std::string> ReadAll(const std::string& name) const override;
  elsm::Result<uint64_t> FileSize(const std::string& name) const override;
  elsm::Status Delete(const std::string& name) override;
  elsm::Status Rename(const std::string& from, const std::string& to) override;
  elsm::Status Truncate(const std::string& name, uint64_t size) override;
  elsm::Status Sync(const std::string& name) override;
  elsm::Status SyncDir() override;
  bool Exists(const std::string& name) const override;
  std::vector<std::string> List(std::string_view prefix) const override;
  std::shared_ptr<const std::string> Blob(
      const std::string& name) const override;
  bool Corrupt(const std::string& name, size_t offset,
               uint8_t mask = 0x01) override;
  void set_enclave(std::shared_ptr<elsm::sgx::Enclave> enclave) override;

  const FsCounters& counters() const { return counters_; }

 private:
  // Counts one call and, when tracing, opens a span closed by Finish.
  class Call {
   public:
    Call(const TimingFs& fs, FsOp op, FileKind kind);
    void Finish(uint64_t bytes, uint32_t width = 0);

   private:
    const TimingFs& fs_;
    FsOp op_;
    FileKind kind_;
    bool timed_ = false;
    uint64_t start_ns_ = 0;
  };

  std::shared_ptr<elsm::storage::Fs> base_;
  Tracer* tracer_;
  mutable FsCounters counters_;
};

}  // namespace elsmbench
