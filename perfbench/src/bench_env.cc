#include "bench_env.h"

#include <filesystem>

namespace perfbench {

using laser::Slice;
using laser::Status;

namespace {

thread_local Role tls_role = Role::kEngine;
thread_local ScopedSpan* tls_span = nullptr;

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string t(suffix);
  return s.size() >= t.size() && s.compare(s.size() - t.size(), t.size(), t) == 0;
}

std::string BaseName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

class CountingSequentialFile final : public laser::SequentialFile {
 public:
  CountingSequentialFile(CountingEnv* env, FileKind kind,
                         std::unique_ptr<laser::SequentialFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    const int64_t start = env_->StartOp();
    Status s = base_->Read(n, result, scratch);
    env_->Note(kind_, FileOp::kRead, s.ok() ? result->size() : 0, start);
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  CountingEnv* const env_;
  const FileKind kind_;
  std::unique_ptr<laser::SequentialFile> base_;
};

class CountingRandomAccessFile final : public laser::RandomAccessFile {
 public:
  CountingRandomAccessFile(CountingEnv* env, FileKind kind,
                           std::unique_ptr<laser::RandomAccessFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    const int64_t start = env_->StartOp();
    Status s = base_->Read(offset, n, result, scratch);
    env_->Note(kind_, FileOp::kRead, s.ok() ? result->size() : 0, start);
    return s;
  }

 private:
  CountingEnv* const env_;
  const FileKind kind_;
  std::unique_ptr<laser::RandomAccessFile> base_;
};

class CountingWritableFile final : public laser::WritableFile {
 public:
  CountingWritableFile(CountingEnv* env, FileKind kind,
                       std::unique_ptr<laser::WritableFile> base)
      : env_(env), kind_(kind), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    const int64_t start = env_->StartOp();
    Status s = base_->Append(data);
    env_->Note(kind_, FileOp::kAppend, data.size(), start);
    return s;
  }
  Status Flush() override {
    const int64_t start = env_->StartOp();
    Status s = base_->Flush();
    env_->Note(kind_, FileOp::kFlush, 0, start);
    return s;
  }
  Status Sync() override {
    const int64_t start = env_->StartOp();
    Status s = base_->Flush();
    // Spin rather than sleep: on a VM, waking a sleeping thread goes through
    // the hypervisor, whose latency follows the host's load.
    const int64_t until =
        NowNanos() + std::chrono::nanoseconds(kModelledSync).count();
    while (NowNanos() < until) {
    }
    env_->Note(kind_, FileOp::kSync, 0, start);
    return s;
  }
  Status Close() override {
    const int64_t start = env_->StartOp();
    Status s = base_->Close();
    env_->Note(kind_, FileOp::kClose, 0, start);
    return s;
  }

 private:
  CountingEnv* const env_;
  const FileKind kind_;
  std::unique_ptr<laser::WritableFile> base_;
};

}  // namespace

const char* RoleName(Role role) {
  static const char* const kNames[] = {"engine", "main", "oltp", "olap"};
  return kNames[static_cast<int>(role)];
}

const char* KindName(FileKind kind) {
  static const char* const kNames[] = {"wal", "sst", "manifest", "txnlog",
                                       "other"};
  return kNames[static_cast<int>(kind)];
}

const char* OpName(FileOp op) {
  static const char* const kNames[] = {"create", "append", "flush", "sync",
                                       "read",   "close",  "rename", "remove"};
  return kNames[static_cast<int>(op)];
}

FileKind KindOfPath(const std::string& path) {
  const std::string name = BaseName(path);
  if (EndsWith(name, ".wal")) return FileKind::kWal;
  if (EndsWith(name, ".sst")) return FileKind::kSst;
  if (name.rfind("MANIFEST", 0) == 0) return FileKind::kManifest;
  if (name == "txn.log") return FileKind::kTxnLog;
  return FileKind::kOther;
}

RoleScope::RoleScope(Role role) : previous_(tls_role) { tls_role = role; }
RoleScope::~RoleScope() { tls_role = previous_; }

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint32_t Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> guard(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<std::string> Tracer::names() const {
  std::lock_guard<std::mutex> guard(mu_);
  return names_;
}

Tracer::Buffer* Tracer::ThreadBuffer() {
  // Buffers belong to the tracer and outlive their threads, so spans of a
  // client thread that already joined are still there to be taken.
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> guard(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
  }
  return buffer;
}

void Tracer::Record(const Span& span) {
  Buffer* buffer = ThreadBuffer();
  std::lock_guard<std::mutex> guard(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> Tracer::TakeSpans() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_guard(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return out;
}

ScopedSpan::ScopedSpan(uint32_t name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  outer_ = tls_span;
  span_.id = tracer.NextId();
  span_.parent = outer_ != nullptr ? outer_->span_.id : 0;
  span_.request = outer_ != nullptr ? outer_->span_.request : span_.id;
  span_.name = name;
  span_.role = tls_role;
  tls_span = this;
  span_.start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNanos();
  tls_span = outer_;
  if (outer_ != nullptr) outer_->AddChildTime(span_.end_ns - span_.start_ns);
  Tracer::Get().Record(span_);
}

// ---------------------------------------------------------------------------
// Counting Env
// ---------------------------------------------------------------------------

OpTotals EnvSnapshot::Sum(int role, int kind, FileOp op) const {
  OpTotals out;
  for (int r = 0; r < kNumRoles; ++r) {
    if (role >= 0 && r != role) continue;
    for (int k = 0; k < kNumKinds; ++k) {
      if (kind >= 0 && k != kind) continue;
      const OpTotals& t = totals[r][k][static_cast<int>(op)];
      out.calls += t.calls;
      out.bytes += t.bytes;
      out.nanos += t.nanos;
    }
  }
  return out;
}

EnvSnapshot EnvSnapshot::Minus(const EnvSnapshot& before) const {
  EnvSnapshot out;
  for (int r = 0; r < kNumRoles; ++r) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int o = 0; o < kNumOps; ++o) {
        const OpTotals& a = totals[r][k][o];
        const OpTotals& b = before.totals[r][k][o];
        out.totals[r][k][o] = {a.calls - b.calls, a.bytes - b.bytes,
                               a.nanos - b.nanos};
      }
    }
  }
  return out;
}

CountingEnv::CountingEnv(laser::Env* base) : base_(base) {
  for (int k = 0; k < kNumKinds; ++k) {
    for (int o = 0; o < kNumOps; ++o) {
      span_names_[k][o] = Tracer::Get().Intern(
          std::string("env.") + KindName(static_cast<FileKind>(k)) + "." +
          OpName(static_cast<FileOp>(o)));
    }
  }
}

EnvSnapshot CountingEnv::Snapshot() const {
  EnvSnapshot out;
  for (int r = 0; r < kNumRoles; ++r) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int o = 0; o < kNumOps; ++o) {
        const Counter& c = counters_[r][k][o];
        out.totals[r][k][o] = {c.calls.load(std::memory_order_relaxed),
                               c.bytes.load(std::memory_order_relaxed),
                               c.nanos.load(std::memory_order_relaxed)};
      }
    }
  }
  return out;
}

void CountingEnv::Note(FileKind kind, FileOp op, uint64_t bytes,
                       int64_t start_ns) {
  const Role role = tls_role;
  Counter& c =
      counters_[static_cast<int>(role)][static_cast<int>(kind)][static_cast<int>(op)];
  c.calls.fetch_add(1, std::memory_order_relaxed);
  if (bytes > 0) c.bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (start_ns == 0) return;

  Span span;
  span.end_ns = NowNanos();
  span.start_ns = start_ns;
  c.nanos.fetch_add(static_cast<uint64_t>(span.end_ns - start_ns),
                    std::memory_order_relaxed);
  Tracer& tracer = Tracer::Get();
  span.id = tracer.NextId();
  span.name = span_names_[static_cast<int>(kind)][static_cast<int>(op)];
  span.role = role;
  if (ScopedSpan* parent = tls_span; parent != nullptr) {
    span.parent = parent->span().id;
    span.request = parent->span().request;
    parent->AddChildTime(span.end_ns - start_ns);
  }
  tracer.Record(span);
}

Status CountingEnv::NewSequentialFile(
    const std::string& fname, std::unique_ptr<laser::SequentialFile>* result) {
  std::unique_ptr<laser::SequentialFile> file;
  Status s = base_->NewSequentialFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<CountingSequentialFile>(this, KindOfPath(fname),
                                                       std::move(file));
  }
  return s;
}

Status CountingEnv::NewRandomAccessFile(
    const std::string& fname, std::unique_ptr<laser::RandomAccessFile>* result) {
  std::unique_ptr<laser::RandomAccessFile> file;
  Status s = base_->NewRandomAccessFile(fname, &file);
  if (s.ok()) {
    *result = std::make_unique<CountingRandomAccessFile>(
        this, KindOfPath(fname), std::move(file));
  }
  return s;
}

Status CountingEnv::NewWritableFile(const std::string& fname,
                                    std::unique_ptr<laser::WritableFile>* result) {
  const FileKind kind = KindOfPath(fname);
  const int64_t start = StartOp();
  std::unique_ptr<laser::WritableFile> file;
  Status s = base_->NewWritableFile(fname, &file);
  Note(kind, FileOp::kCreate, 0, start);
  if (s.ok()) {
    *result = std::make_unique<CountingWritableFile>(this, kind, std::move(file));
  }
  return s;
}

bool CountingEnv::FileExists(const std::string& fname) {
  return base_->FileExists(fname);
}

Status CountingEnv::GetChildren(const std::string& dir,
                                std::vector<std::string>* result) {
  return base_->GetChildren(dir, result);
}

Status CountingEnv::RemoveFile(const std::string& fname) {
  const int64_t start = StartOp();
  Status s = base_->RemoveFile(fname);
  Note(KindOfPath(fname), FileOp::kRemove, 0, start);
  return s;
}

Status CountingEnv::CreateDir(const std::string& dirname) {
  return base_->CreateDir(dirname);
}

Status CountingEnv::RemoveDir(const std::string& dirname) {
  return base_->RemoveDir(dirname);
}

Status CountingEnv::GetFileSize(const std::string& fname, uint64_t* size) {
  return base_->GetFileSize(fname, size);
}

Status CountingEnv::RenameFile(const std::string& src,
                               const std::string& target) {
  const int64_t start = StartOp();
  Status s = base_->RenameFile(src, target);
  Note(KindOfPath(target), FileOp::kRename, 0, start);
  return s;
}

uint64_t DirectoryBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      const uintmax_t size = it->file_size(size_ec);
      if (!size_ec) total += size;
    }
  }
  return total;
}

}  // namespace perfbench
