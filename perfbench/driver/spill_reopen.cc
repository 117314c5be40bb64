// spill_reopen: restart-heavy out-of-core mining. Each cycle is a fresh
// session (a restarted process, as far as the engine can tell) that OPENs
// a catalog whose relations live in paged files larger than its buffer
// pool, mines the basket relation under a memory budget well below the
// unbudgeted peak (so joins and aggregates spill), appends to a relation
// no flock reads, and checkpoints.
#include <cstdio>
#include <cstdlib>

#include "driver/common.h"

namespace perfbench {
namespace {

struct SpillSizes {
  // Mined baskets; a large relation only OPEN reads back; a small one the
  // appends go to, sized so an append costs about what a CHECKPOINT does
  // (then no one write kind owns the write tail).
  int baskets, items, archive, notes;
  int support;
  int memory_mb, buffer_mb;
};

constexpr SpillSizes kFull{6000, 3000, 24000, 8000, 20, 10, 1};
constexpr SpillSizes kTiny{600, 300, 2400, 300, 3, 1, 1};

// The number after `key` in `text` (e.g. "activations=" -> 3), or -1.
long long NumberAfter(const std::string& text, const std::string& key) {
  std::size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + key.size(), nullptr, 10);
}

class SpillReopen {
 public:
  SpillReopen(const Options& opt, RunRecord& rec)
      : opt_(opt), rec_(rec), z_(opt.tiny ? kTiny : kFull) {}

  bool Setup() {
    std::uint64_t t0 = NowNs();
    fs_ = std::make_unique<MemoryFs>();
    LocalSession s(fs_.get());
    char gen[3][200];
    long seed = static_cast<long>(opt_.seed % 1000003);
    std::snprintf(gen[0], sizeof(gen[0]),
                  "GEN BASKETS baskets n_baskets=%d n_items=%d avg_size=8 "
                  "theta=0.9 locality=0.4 topics=60 seed=%ld",
                  z_.baskets, z_.items, seed + 11);
    std::snprintf(gen[1], sizeof(gen[1]),
                  "GEN BASKETS archive n_baskets=%d n_items=%d avg_size=8 "
                  "theta=0.9 seed=%ld",
                  z_.archive, z_.items, seed + 12);
    std::snprintf(gen[2], sizeof(gen[2]),
                  "GEN BASKETS notes n_baskets=%d n_items=%d avg_size=8 "
                  "theta=0.9 seed=%ld",
                  z_.notes, z_.items, seed + 13);
    if (!Must(s, rec_, "OPEN sr")) return false;
    std::uint64_t g0 = NowNs();
    for (const char* stmt : gen) {
      if (!Must(s, rec_, stmt)) return false;
    }
    double gen_s = (NowNs() - g0) / 1e9;
    if (!Must(s, rec_,
              "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND "
              "baskets(B,$2) AND $1 < $2 FILTER COUNT >= " +
                  std::to_string(z_.support))) {
      return false;
    }
    // Reference: the unbudgeted (in-memory) DIRECT answer, cross-checked
    // against PLAN; also the unbudgeted governor peak the budget is set
    // against.
    std::string direct, plan;
    if (!Must(s, rec_, "EXPLAIN ANALYZE pairs DIRECT LIMIT 1000000", &direct) ||
        !Must(s, rec_, "RUN pairs PLAN LIMIT 1000000", &plan)) {
      return false;
    }
    ref_ = AnswerRows(direct);
    if (ref_.empty() || AnswerRows(plan) != ref_) {
      rec_.Fail("reference", "unbudgeted PLAN != DIRECT, or empty");
    }
    rec_.values["unbudgeted_peak_mb"] =
        NumberAfter(direct, "governor: peak ") / 1048576.0;
    if (!Must(s, rec_, "CHECKPOINT") ||
        !Must(s, rec_, "SET MEMORY " + std::to_string(z_.memory_mb)) ||
        !Must(s, rec_, "SET BUFFER " + std::to_string(z_.buffer_mb))) {
      return false;
    }
    rec_.setup_s.push_back((NowNs() - t0) / 1e9);
    rec_.gen_s.push_back(gen_s);
    return true;
  }

  // Cycle, in a fresh session: OPEN, RUN DIRECT, append, RUN PLAN,
  // CHECKPOINT. The append sits between the two queries, so a traced cycle
  // can attribute the WAL counters it moves to it. (Only a fresh session's
  // OPEN runs unbudgeted: once SET MEMORY is restored, reading the page
  // files back exceeds it.)
  void Loop(Recorder& recorder) {
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(opt_.seconds * 1e9);
    for (int cycle = 0; NowNs() < deadline; ++cycle) {
      const bool traced = opt_.trace && cycle % 2 == 1;
      LocalSession s(fs_.get());
      s.MeterWrites(fs_.get(), "sr");
      // The pool must be small before OPEN reads the page files through it.
      s.Helper("SET BUFFER " + std::to_string(z_.buffer_mb));
      if (traced) s.StartTrace();
      RunExpecting(s, recorder, NewRecord("open", "open", traced), "OPEN sr",
                   opt_.tiny ? "recovery:" : "paged: 3 relations");
      for (const std::string mode : {"DIRECT", "PLAN"}) {
        if (NowNs() >= deadline) break;
        if (mode == "PLAN") {
          std::string delta = "deltas/" + std::to_string(cycle) + ".tsv";
          std::string tsv = ArchiveDelta(Mix(opt_.seed, 5000 + cycle),
                                         50'000'000 + 20L * cycle, z_.items);
          StmtRecord r = NewRecord("append", "write", traced);
          r.user_bytes = tsv.size();
          fs_->Put(delta, std::move(tsv));
          RunExpecting(s, recorder, std::move(r),
                       "LOAD notes APPEND FROM " + delta, "+20 rows");
        }
        StmtRecord r = NewRecord("run pairs " + mode, "query", traced);
        std::string out = s.Exec(
            (traced ? "EXPLAIN ANALYZE pairs " : "RUN pairs ") + mode +
                " LIMIT 1000000",
            r);
        CheckRows(out, ref_, r);
        Keep(s, recorder, r, out);
      }
      if (NowNs() >= deadline) break;
      RunExpecting(s, recorder, NewRecord("checkpoint", "write", traced),
                   "CHECKPOINT", "checkpoint:");
    }
    rec_.window_s = (NowNs() - start) / 1e9;
  }

  // Path assertions on one more (untimed) restart: the budgeted run spills
  // and the OPEN missed in the pool.
  void AfterLoop() {
    LocalSession s(fs_.get());
    std::string open, out;
    if (!Must(s, rec_, "SET BUFFER " + std::to_string(z_.buffer_mb)) ||
        !Must(s, rec_, "OPEN sr", &open) ||
        !Must(s, rec_, "EXPLAIN ANALYZE pairs DIRECT LIMIT 1000000", &out)) {
      return;
    }
    if (AnswerRows(out) != ref_) rec_.Fail("final run", "answer differs");
    if (NumberAfter(out, "spill activations=") <= 0) {
      rec_.Fail("path", "the budgeted RUN did not spill");
    }
    if (NumberAfter(out, " misses=") <= 0) {
      rec_.Fail("path", "OPEN had no buffer pool misses");
    }
    if (!opt_.tiny && NumberAfter(open, "paged: ") < 3) {
      rec_.Fail("path", "OPEN restored no paged relations");
    }
  }

 private:
  const Options& opt_;
  RunRecord& rec_;
  const SpillSizes z_;
  std::unique_ptr<MemoryFs> fs_;
  std::vector<std::string> ref_;
};

}  // namespace

void RunSpillReopen(const Options& opt, RunRecord& rec) {
  SpillReopen spill(opt, rec);
  for (int rep = 0; rep < kSetups; ++rep) {
    if (!spill.Setup()) return;
  }
  Recorder recorder;
  spill.Loop(recorder);
  rec.stmts = recorder.Take();
  spill.AfterLoop();
}

}  // namespace perfbench
