// Shared pieces of the benchmark driver: options, the in-memory file
// system the catalogs live on, statement sessions (a local Shell or a
// qf::Client), the statement record every timed call leaves behind, and
// the answer checks.
//
// The driver only talks to the engine through statements (Shell::Execute,
// Client::Send/Recv), so it keeps compiling while the engine's internal
// C++ APIs are rewritten. The few exceptions are named where they occur.
#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/vfs.h"
#include "network/client.h"
#include "shell/shell.h"

namespace perfbench {

std::uint64_t NowNs();

// Set-ups per run: each workload is set up from scratch this many times
// and setup_s is their median; the last set-up is the one measured.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;  // smoke-test sizes
  std::string out;    // where the run record is written
};

// A memory-backed file system for catalogs, WALs, page files, spill files
// and delta batches: the in-process analogue of tmpfs. Sync() and SyncDir()
// are still called on every commit (the flush policy is the engine's own,
// unchanged), they just cost what they cost on tmpfs. Thread-safe.
class MemoryFs : public qf::Vfs {
 public:
  qf::Result<std::string> ReadFile(const std::string& path) override;
  qf::Result<std::string> ReadAt(const std::string& path, std::uint64_t offset,
                                 std::size_t length) override;
  qf::Result<std::vector<std::string>> ListDir(const std::string& dir) override;
  qf::Result<std::uint64_t> FileSize(const std::string& path) override;
  qf::Result<std::unique_ptr<qf::WritableFile>> OpenAppend(
      const std::string& path) override;
  qf::Result<std::unique_ptr<qf::WritableFile>> OpenTrunc(
      const std::string& path) override;
  qf::Status Rename(const std::string& from, const std::string& to) override;
  qf::Status Remove(const std::string& path) override;
  qf::Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  qf::Status CreateDirs(const std::string& dir) override;

  // Benchmark-side helper: writes a whole file (delta batches, base data).
  void Put(const std::string& path, std::string data);

  // Bytes appended to files under one top-level directory (one catalog):
  // what a device under that catalog would have been asked to write.
  std::uint64_t BytesWritten(const std::string& top);

 private:
  class File;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<std::string>> files_;
  std::set<std::string> dirs_{"."};
  std::map<std::string, std::uint64_t> written_;  // by first path component
};

// What one statement left behind. Every statement of a timed loop gets
// one; helper statements (SHOW TRACE, TRACE ON) do not.
struct StmtRecord {
  int client = 0;        // client index (0 for single-session workloads)
  std::string kind;      // e.g. "run pairs PLAN", "append", "open"
  std::string cls;       // "query" | "write" | "open" | "plan"
  std::uint64_t t0 = 0;  // client-observed start/end, steady clock ns
  std::uint64_t t1 = 0;
  bool ok = true;        // statement status OK (OVERLOADED etc. are not)
  bool correct = true;   // output passed its check
  bool traced = false;   // ran in a traced cycle
  // The engine session the statement ran in (the server's session id on
  // the served path), and its request id there.
  std::uint64_t server_session = 0;
  std::uint64_t request_id = 0;
  std::uint64_t user_bytes = 0;      // appends: bytes of the delta batch
  std::uint64_t dev_bytes = 0;       // file bytes the statement wrote
  std::string error;
  std::string output;                // kept for traced statements only
  std::vector<std::string> engine;   // engine span events (JSON lines)
};

class Recorder {
 public:
  void Add(StmtRecord rec);
  std::vector<StmtRecord> Take();

 private:
  std::mutex mu_;
  std::vector<StmtRecord> records_;
};

// One conversation with the engine.
class Session {
 public:
  virtual ~Session() = default;
  // Executes `stmt`, filling rec.t0/t1/ok/error (and the server ids on the
  // served path) and the bytes it wrote under the metered catalog. Returns
  // the statement output ("" on error).
  std::string Exec(const std::string& stmt, StmtRecord& rec);

  // Meters the bytes statements write under catalog directory `top`.
  void MeterWrites(MemoryFs* fs, std::string top) {
    fs_ = fs;
    top_ = std::move(top);
  }

  // Executes a helper statement outside any timing; false on error.
  bool Helper(const std::string& stmt, std::string* out = nullptr);

  // Traced cycles: statement-level span collection through the shell's own
  // TRACE ON / SHOW TRACE statements. Fetch() moves the buffered events
  // into `rec` and restarts the buffer.
  bool StartTrace() { return Helper("TRACE ON"); }
  bool FetchTrace(StmtRecord& rec);

 protected:
  virtual std::string Run(const std::string& stmt, StmtRecord& rec) = 0;

 private:
  MemoryFs* fs_ = nullptr;
  std::string top_;
};

class LocalSession : public Session {
 public:
  explicit LocalSession(MemoryFs* fs);
  const qf::Shell& shell() const { return shell_; }

 protected:
  std::string Run(const std::string& stmt, StmtRecord& rec) override;

 private:
  qf::Shell shell_;
  std::uint64_t id_;
};

class RemoteSession : public Session {
 public:
  explicit RemoteSession(qf::Client client) : client_(std::move(client)) {}
  qf::Client& client() { return client_; }

 protected:
  std::string Run(const std::string& stmt, StmtRecord& rec) override;

 private:
  qf::Client client_;
};

// --- answers --------------------------------------------------------------

// The answer rows of RUN / EXPLAIN ANALYZE / MAXIMAL output: every line that
// starts with "  (", without the indent, in output order.
std::vector<std::string> AnswerRows(std::string_view output);

// The mode tag of a RUN timing line: "PLAN", "INCREMENTAL:delta(+20 rows)".
std::string ModeTag(std::string_view output);

// Compares `output`'s answer rows with `expected`; on mismatch sets
// rec.correct = false with a short reason.
void CheckRows(std::string_view output, const std::vector<std::string>& expected,
               StmtRecord& rec);

// Output text without the (checked, potentially long) answer listing.
std::string StripRows(std::string_view output);

// --- generated data ---------------------------------------------------------

// splitmix64: the benchmark's own deterministic generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

class Zipf {
 public:
  Zipf(std::size_t n, double theta);
  std::size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

std::uint64_t Mix(std::uint64_t a, std::uint64_t b);
std::string ItemName(std::size_t rank);  // "item00042", like GEN BASKETS

// --- run record -------------------------------------------------------------

struct RunRecord {
  std::vector<double> setup_s;   // one per set-up repetition
  std::vector<double> gen_s;     // data generation part of each set-up
  double window_s = 0;           // timed window actually used
  double peak_rss_mb = 0;        // taken before the closing kernel
  std::vector<double> kernel_ms; // benchmark-owned CPU kernel, start and end
  std::vector<StmtRecord> stmts;
  std::map<std::string, double> values;          // workload-specific numbers
  std::vector<std::string> server_trace;         // served path: stmt spans

  // A failed check (set-up, reference, path assertion). Thread-safe.
  void Fail(const std::string& check, const std::string& detail) {
    std::lock_guard<std::mutex> lock(fail_mu);
    checks_failed.emplace_back(check, detail);
  }
  std::mutex fail_mu;
  std::vector<std::pair<std::string, std::string>> checks_failed;
};

// Times the benchmark-owned CPU kernel (ms, median of a few repetitions).
double KernelMs();

double PeakRssMb();

// --- statement helpers shared by the workloads ---------------------------------

StmtRecord NewRecord(std::string kind, std::string cls, bool traced,
                     int client = 0);

// Files a timed statement's record; for a traced one, first keeps its
// output (without the checked answer rows) and collects its engine spans.
void Keep(Session& s, Recorder& recorder, StmtRecord& r, const std::string& out);

// Runs a timed statement whose output must contain `expect`, and files it.
void RunExpecting(Session& s, Recorder& recorder, StmtRecord r,
                  const std::string& stmt, std::string_view expect);

// Runs a set-up or check statement; a failure is a failed check.
bool Must(Session& s, RunRecord& rec, const std::string& stmt,
          std::string* out = nullptr);

// Twenty new "BID\tItem" rows, basket ids from `first_bid`, for a relation
// no flock reads.
std::string ArchiveDelta(std::uint64_t seed, long first_bid, int items);

// Writes `rec` (plus provenance) as one JSON document to `path`.
bool WriteRecord(const Options& opt, const RunRecord& rec,
                 const std::string& path);

// Workloads.
void RunMineMix(const Options& opt, RunRecord& rec);
void RunServedAppend(const Options& opt, RunRecord& rec);
void RunSpillReopen(const Options& opt, RunRecord& rec);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
