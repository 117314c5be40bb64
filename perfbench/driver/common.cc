#include "driver/common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- MemoryFs ---------------------------------------------------------------

namespace {

std::string TopDir(const std::string& path) {
  return path.substr(0, path.find('/'));
}

}  // namespace

class MemoryFs::File : public qf::WritableFile {
 public:
  File(MemoryFs* fs, std::shared_ptr<std::string> data, std::string path)
      : fs_(fs), data_(std::move(data)), path_(std::move(path)) {}
  qf::Status Append(std::string_view bytes) override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    data_->append(bytes);
    fs_->written_[TopDir(path_)] += bytes.size();
    return qf::Status::Ok();
  }
  qf::Status Sync() override { return qf::Status::Ok(); }
  qf::Status Close() override { return qf::Status::Ok(); }

 private:
  MemoryFs* fs_;
  std::shared_ptr<std::string> data_;
  std::string path_;
};

std::uint64_t MemoryFs::BytesWritten(const std::string& top) {
  std::lock_guard<std::mutex> lock(mu_);
  return written_[top];
}

qf::Result<std::string> MemoryFs::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return qf::NotFoundError("open " + path);
  return *it->second;
}

qf::Result<std::string> MemoryFs::ReadAt(const std::string& path,
                                         std::uint64_t offset,
                                         std::size_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return qf::NotFoundError("open " + path);
  const std::string& data = *it->second;
  if (offset >= data.size()) return std::string();
  return data.substr(offset, length);
}

qf::Result<std::vector<std::string>> MemoryFs::ListDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [path, data] : files_) {
    if (qf::VfsDirName(path) == dir) {
      names.push_back(path.substr(path.find_last_of('/') + 1));
    }
  }
  return names;
}

qf::Result<std::uint64_t> MemoryFs::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return qf::NotFoundError("stat " + path);
  return static_cast<std::uint64_t>(it->second->size());
}

qf::Result<std::unique_ptr<qf::WritableFile>> MemoryFs::OpenAppend(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.contains(qf::VfsDirName(path))) {
    return qf::IoError("open " + path + ": no such directory");
  }
  auto& slot = files_[path];
  if (slot == nullptr) slot = std::make_shared<std::string>();
  return std::unique_ptr<qf::WritableFile>(new File(this, slot, path));
}

qf::Result<std::unique_ptr<qf::WritableFile>> MemoryFs::OpenTrunc(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.contains(qf::VfsDirName(path))) {
    return qf::IoError("open " + path + ": no such directory");
  }
  auto data = std::make_shared<std::string>();
  files_[path] = data;
  return std::unique_ptr<qf::WritableFile>(new File(this, data, path));
}

qf::Status MemoryFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return qf::IoError("rename " + from + ": missing");
  files_[to] = it->second;
  files_.erase(from);
  return qf::Status::Ok();
}

qf::Status MemoryFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) return qf::NotFoundError("remove " + path);
  return qf::Status::Ok();
}

qf::Status MemoryFs::SyncDir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!dirs_.contains(dir)) return qf::IoError("fsync dir " + dir);
  return qf::Status::Ok();
}

bool MemoryFs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.contains(path) || dirs_.contains(path);
}

qf::Status MemoryFs::CreateDirs(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string prefix;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    pos = dir.find('/', pos + 1);
    prefix = dir.substr(0, pos);
    if (!prefix.empty()) dirs_.insert(prefix);
  }
  return qf::Status::Ok();
}

void MemoryFs::Put(const std::string& path, std::string data) {
  CreateDirs(qf::VfsDirName(path));
  std::lock_guard<std::mutex> lock(mu_);
  files_[path] = std::make_shared<std::string>(std::move(data));
}

// --- records and sessions -----------------------------------------------------

void Recorder::Add(StmtRecord rec) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(rec));
}

std::vector<StmtRecord> Recorder::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(records_);
}

bool Session::Helper(const std::string& stmt, std::string* out) {
  StmtRecord scratch;
  std::string text = Exec(stmt, scratch);
  if (out != nullptr) *out = std::move(text);
  return scratch.ok;
}

bool Session::FetchTrace(StmtRecord& rec) {
  std::string text;
  if (!Helper("SHOW TRACE", &text)) return false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text[pos] == '{') rec.engine.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return StartTrace();
}

std::string Session::Exec(const std::string& stmt, StmtRecord& rec) {
  if (fs_ == nullptr) return Run(stmt, rec);
  std::uint64_t before = fs_->BytesWritten(top_);
  std::string out = Run(stmt, rec);
  rec.dev_bytes = fs_->BytesWritten(top_) - before;
  return out;
}

LocalSession::LocalSession(MemoryFs* fs) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id++;
  shell_.set_vfs(fs);
}

std::string LocalSession::Run(const std::string& stmt, StmtRecord& rec) {
  rec.server_session = id_;
  rec.t0 = NowNs();
  qf::Result<std::string> out = shell_.Execute(stmt);
  rec.t1 = NowNs();
  rec.ok = out.ok();
  if (!out.ok()) {
    rec.error = out.status().ToString();
    return std::string();
  }
  return std::move(*out);
}

std::string RemoteSession::Run(const std::string& stmt, StmtRecord& rec) {
  rec.t0 = NowNs();
  rec.server_session = client_.session_id();
  qf::Result<std::uint64_t> id = client_.Send(stmt);
  if (!id.ok()) {
    rec.t1 = NowNs();
    rec.ok = false;
    rec.error = id.status().ToString();
    return std::string();
  }
  qf::Result<qf::Client::Reply> reply = client_.Recv();
  rec.t1 = NowNs();
  rec.request_id = *id;
  if (!reply.ok()) {
    rec.ok = false;
    rec.error = reply.status().ToString();
    return std::string();
  }
  rec.ok = reply->status.ok();
  if (!rec.ok) {
    rec.error = reply->status.ToString();
    return std::string();
  }
  return std::move(reply->output);
}

// --- answers ------------------------------------------------------------------

std::vector<std::string> AnswerRows(std::string_view output) {
  std::vector<std::string> rows;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t end = output.find('\n', pos);
    if (end == std::string_view::npos) end = output.size();
    std::string_view line = output.substr(pos, end - pos);
    if (line.size() > 3 && line.substr(0, 3) == "  (") {
      rows.emplace_back(line.substr(2));
    }
    pos = end + 1;
  }
  return rows;
}

std::string ModeTag(std::string_view output) {
  std::size_t eol = output.find('\n');
  std::string_view first = output.substr(0, eol);
  std::size_t open = first.rfind(" (");
  if (open == std::string_view::npos || first.back() != ')') return "";
  std::string_view tag = first.substr(open + 2, first.size() - open - 3);
  // EXPLAIN ANALYZE appends ", threads N" inside the parentheses.
  if (std::size_t comma = tag.find(", threads"); comma != std::string_view::npos) {
    tag = tag.substr(0, comma);
  }
  return std::string(tag);
}

void CheckRows(std::string_view output, const std::vector<std::string>& expected,
               StmtRecord& rec) {
  if (!rec.ok) return;
  std::vector<std::string> got = AnswerRows(output);
  if (got == expected) return;
  rec.correct = false;
  rec.error = "answer mismatch: " + std::to_string(got.size()) +
              " rows, expected " + std::to_string(expected.size());
}

std::string StripRows(std::string_view output) {
  std::string out;
  std::size_t pos = 0;
  while (pos < output.size()) {
    std::size_t end = output.find('\n', pos);
    if (end == std::string_view::npos) end = output.size();
    std::string_view line = output.substr(pos, end - pos);
    if (!(line.size() > 3 && line.substr(0, 3) == "  (")) {
      out.append(line);
      out.push_back('\n');
    }
    pos = end + 1;
  }
  return out;
}

// --- generated data -------------------------------------------------------------

std::uint64_t Rng::Next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  Rng rng(a * 0x2545F4914F6CDD1Dull ^ b);
  return rng.Next();
}

Zipf::Zipf(std::size_t n, double theta) : cdf_(n) {
  double total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t Zipf::Sample(Rng& rng) const {
  double u = rng.Uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

std::string ItemName(std::size_t rank) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "item%05zu", rank);
  return buf;
}

// --- host ---------------------------------------------------------------------

double KernelMs() {
  // A fixed integer sort of 1 MiB: cache-resident, no engine code, so its
  // drift is the core's, not the program's.
  std::vector<std::uint32_t> data(1 << 18);
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(42);
    for (std::uint32_t& x : data) x = static_cast<std::uint32_t>(rng.Next());
    std::uint64_t t0 = NowNs();
    std::sort(data.begin(), data.end());
    times.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- statement helpers ------------------------------------------------------------

StmtRecord NewRecord(std::string kind, std::string cls, bool traced,
                     int client) {
  StmtRecord r;
  r.client = client;
  r.kind = std::move(kind);
  r.cls = std::move(cls);
  r.traced = traced;
  return r;
}

void Keep(Session& s, Recorder& recorder, StmtRecord& r,
          const std::string& out) {
  if (r.traced) {
    r.output = StripRows(out);
    s.FetchTrace(r);
  }
  recorder.Add(std::move(r));
}

void RunExpecting(Session& s, Recorder& recorder, StmtRecord r,
                  const std::string& stmt, std::string_view expect) {
  std::string out = s.Exec(stmt, r);
  if (r.ok && out.find(expect) == std::string::npos) {
    r.correct = false;
    r.error = "unexpected output: " + out.substr(0, 80);
  }
  Keep(s, recorder, r, out);
}

bool Must(Session& s, RunRecord& rec, const std::string& stmt,
          std::string* out) {
  if (s.Helper(stmt, out)) return true;
  rec.Fail("statement", stmt.substr(0, 60) + " failed");
  return false;
}

std::string ArchiveDelta(std::uint64_t seed, long first_bid, int items) {
  Rng rng(seed);
  std::string tsv = "BID\tItem\n";
  for (long bid = first_bid; bid < first_bid + 20; ++bid) {
    tsv += std::to_string(bid);
    tsv += '\t';
    tsv += ItemName(rng.Below(static_cast<std::uint64_t>(items)));
    tsv += '\n';
  }
  return tsv;
}

// --- record output ----------------------------------------------------------------

namespace {

void Escape(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void Array(std::string& out, const std::vector<double>& values) {
  out.push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += Num(values[i]);
  }
  out.push_back(']');
}

}  // namespace

bool WriteRecord(const Options& opt, const RunRecord& rec,
                 const std::string& path) {
  std::string out = "{\"workload\":";
  Escape(out, opt.workload);
  out += ",\"seed\":" + std::to_string(opt.seed);
  out += ",\"trace\":" + std::string(opt.trace ? "true" : "false");
  out += ",\"tiny\":" + std::string(opt.tiny ? "true" : "false");
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  out += ",\"provenance\":{\"build_type\":";
  Escape(out, QF_PB_BUILD_TYPE);
  out += ",\"cxx_flags\":";
  Escape(out, QF_PB_CXX_FLAGS);
  out += ",\"compiler\":";
  Escape(out, QF_PB_COMPILER);
  out += ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"host\":";
  Escape(out, host);
  out += "}";
  out += ",\"setup_s\":";
  Array(out, rec.setup_s);
  out += ",\"gen_s\":";
  Array(out, rec.gen_s);
  out += ",\"window_s\":" + Num(rec.window_s);
  out += ",\"kernel_ms\":";
  Array(out, rec.kernel_ms);
  out += ",\"peak_rss_mb\":" + Num(rec.peak_rss_mb);
  out += ",\"values\":{";
  bool first = true;
  for (const auto& [key, value] : rec.values) {
    if (!first) out.push_back(',');
    first = false;
    Escape(out, key);
    out += ":" + Num(value);
  }
  out += "},\"checks_failed\":[";
  for (std::size_t i = 0; i < rec.checks_failed.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "[";
    Escape(out, rec.checks_failed[i].first);
    out += ",";
    Escape(out, rec.checks_failed[i].second);
    out += "]";
  }
  out += "],\"server_trace\":[";
  for (std::size_t i = 0; i < rec.server_trace.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += rec.server_trace[i];
  }
  out += "],\"stmts\":[";
  for (std::size_t i = 0; i < rec.stmts.size(); ++i) {
    const StmtRecord& s = rec.stmts[i];
    if (i > 0) out += ",\n";
    out += "{\"client\":" + std::to_string(s.client) + ",\"kind\":";
    Escape(out, s.kind);
    out += ",\"cls\":";
    Escape(out, s.cls);
    out += ",\"t0\":" + std::to_string(s.t0) + ",\"t1\":" + std::to_string(s.t1);
    out += ",\"ok\":" + std::string(s.ok ? "true" : "false");
    out += ",\"correct\":" + std::string(s.correct ? "true" : "false");
    out += ",\"traced\":" + std::string(s.traced ? "true" : "false");
    out += ",\"session\":" + std::to_string(s.server_session);
    out += ",\"req\":" + std::to_string(s.request_id);
    out += ",\"user_bytes\":" + std::to_string(s.user_bytes);
    out += ",\"dev_bytes\":" + std::to_string(s.dev_bytes);
    out += ",\"error\":";
    Escape(out, s.error);
    out += ",\"output\":";
    Escape(out, s.output);
    out += ",\"engine\":[";
    for (std::size_t j = 0; j < s.engine.size(); ++j) {
      if (j > 0) out.push_back(',');
      out += s.engine[j];
    }
    out += "]}";
  }
  out += "]}\n";
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

}  // namespace perfbench
