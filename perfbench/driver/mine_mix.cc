// mine_mix: one in-process Shell, one closed-loop client, the paper's
// mining shapes round-robin. The data fits in memory and in the buffer
// pool; the engine layers (relational, flocks, optimizer, plan) do almost
// all of the work. Once per cycle the session also appends to a relation
// no flock reads, checkpoints, and reopens its catalog twice, so every
// request class is present.
#include <algorithm>
#include <cstdio>

#include "apriori/apriori.h"
#include "driver/common.h"

namespace perfbench {
namespace {

struct MixSizes {
  int baskets, items;
  int patients, symptoms, medicines;
  int docs, words, anchors;
  int nodes;
  int archive;
  int pairs_support, side_support, words_support, path_support;
  int maximal_support, maximal_size;
};

constexpr MixSizes kFull{3000, 1500, 9000, 4500, 2250, 2400, 9600, 4000,
                         4000, 4000, 12,   8,    8,    5,    20,   4};
constexpr MixSizes kTiny{300, 150, 600, 300, 150, 300, 1200, 500,
                         150, 400, 3,   2,   3,   2,   3,    3};

struct Query {
  std::string flock;  // empty for MAXIMAL
  std::string mode;
  std::string threads;  // "" or " THREADS 2"
};

// Round-robin order: kinds of one figure are spread over the cycle so a
// slow phase of the host does not land on one shape only.
const std::vector<Query> kQueries = {
    {"pairs", "DIRECT", ""}, {"side", "PLAN", ""},   {"pairs", "PLAN", ""},
    {"words", "PLAN", ""},   {"pairs", "DYNAMIC", ""}, {"path", "PLAN", ""},
    {"side", "DIRECT", ""},  {"pairs", "PLAN", " THREADS 2"}, {"", "", ""},
};

std::string Fmt(const char* fmt, long a = 0, long b = 0, long c = 0,
                long d = 0, long e = 0, long f = 0) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d, e, f);
  return buf;
}

std::vector<std::string> SetupStatements(const MixSizes& z, std::uint64_t seed) {
  long s = static_cast<long>(seed % 1000003);
  return {
      "OPEN mm",
      Fmt("GEN BASKETS baskets n_baskets=%ld n_items=%ld avg_size=8 "
          "theta=0.9 locality=0.4 topics=60 seed=%ld",
          z.baskets, z.items, s + 1),
      Fmt("GEN MEDICAL m n_patients=%ld n_diseases=60 n_symptoms=%ld "
          "n_medicines=%ld theta=0.8 seed=%ld",
          z.patients, z.symptoms, z.medicines, s + 2),
      Fmt("GEN WEB w n_docs=%ld n_words=%ld n_anchors=%ld theta=0.4 "
          "locality=0.5 topics=150 seed=%ld",
          z.docs, z.words, z.anchors, s + 3),
      Fmt("GEN GRAPH arc n_nodes=%ld degree=4 theta=0.6 seed=%ld", z.nodes,
          s + 4),
      Fmt("GEN BASKETS archive n_baskets=%ld n_items=%ld avg_size=8 "
          "theta=0.9 seed=%ld",
          z.archive, z.items, s + 5),
  };
}

std::vector<std::string> FlockStatements(const MixSizes& z) {
  return {
      Fmt("FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= %ld",
          z.pairs_support),
      Fmt("FLOCK side QUERY answer(P) :- exhibits(P,$s) AND treatments(P,$m) "
          "AND diagnoses(P,D) AND NOT causes(D,$s) FILTER COUNT >= %ld",
          z.side_support),
      Fmt("FLOCK words QUERY "
          "answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2 "
          "answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) "
          "AND $1 < $2 "
          "answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) "
          "AND $1 < $2 FILTER COUNT >= %ld",
          z.words_support),
      Fmt("FLOCK path QUERY answer(X) :- arc($1,X) AND arc(X,Y1) AND "
          "arc(Y1,Y2) AND arc(Y2,Y3) FILTER COUNT >= %ld",
          z.path_support),
  };
}

std::string QueryKind(const Query& q) {
  return q.flock.empty() ? "maximal"
                         : "run " + q.flock + " " + q.mode + q.threads;
}

std::string QueryText(const Query& q, const MixSizes& z, bool traced) {
  if (q.flock.empty()) {
    return Fmt("MAXIMAL baskets SUPPORT %ld MAXSIZE %ld", z.maximal_support,
               z.maximal_size);
  }
  return std::string(traced ? "EXPLAIN ANALYZE " : "RUN ") + q.flock + " " +
         q.mode + " LIMIT 1000000" + q.threads;
}

// Maximal itemsets by levelwise a-priori (a different algorithm than the
// engine's flock sequence), rendered like MAXIMAL's rows. Binds to the
// apriori C++ API, like the gap measurement below.
std::vector<std::string> AprioriMaximal(const qf::Shell& shell,
                                        const MixSizes& z) {
  qf::Result<qf::BasketData> data = qf::BasketsFromRelation(
      shell.database().Get("baskets"), "BID", "Item");
  if (!data.ok()) return {};
  qf::AprioriOptions options;
  options.min_support = static_cast<std::size_t>(z.maximal_support);
  options.max_size = static_cast<std::size_t>(z.maximal_size);
  std::vector<qf::Itemset> sets = qf::AprioriFrequentItemsets(*data, options);
  std::vector<std::string> rows;
  for (const qf::Itemset& s : sets) {
    bool maximal = true;
    for (const qf::Itemset& t : sets) {
      if (t.items.size() == s.items.size() + 1 &&
          std::includes(t.items.begin(), t.items.end(), s.items.begin(),
                        s.items.end())) {
        maximal = false;
        break;
      }
    }
    if (!maximal) continue;
    std::string row = "(";
    for (std::size_t i = 0; i < s.items.size(); ++i) {
      if (i > 0) row += ", ";
      row += data->item_names[s.items[i]];
    }
    rows.push_back(row + ")");
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Median wall time of the hand-coded a-priori pair miner on the session's
// baskets (the §1.4 baseline); also checks it finds the flock's pairs.
double AprioriPairsMs(const qf::Shell& shell, const MixSizes& z,
                      std::size_t expected_pairs, RunRecord& rec) {
  qf::Result<qf::BasketData> data = qf::BasketsFromRelation(
      shell.database().Get("baskets"), "BID", "Item");
  if (!data.ok()) {
    rec.Fail("apriori", data.status().ToString());
    return 0;
  }
  std::vector<double> ms;
  for (int rep = 0; rep < 7; ++rep) {
    std::uint64_t t0 = NowNs();
    std::vector<qf::Itemset> pairs = qf::AprioriFrequentPairs(
        *data, static_cast<std::size_t>(z.pairs_support));
    ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (pairs.size() != expected_pairs) {
      rec.Fail("apriori", "a-priori found " + std::to_string(pairs.size()) +
                              " pairs, the flock " +
                              std::to_string(expected_pairs));
    }
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

class MineMix {
 public:
  MineMix(const Options& opt, RunRecord& rec)
      : opt_(opt), rec_(rec), z_(opt.tiny ? kTiny : kFull) {}

  // One set-up: a fresh file system and session, the generated data in a
  // checkpointed catalog, and the reference answers (which double as the
  // warm-up). Returns false when a set-up statement failed.
  bool Setup() {
    std::uint64_t t0 = NowNs();
    session_.reset();  // closes the previous catalog before its file system
    fs_ = std::make_unique<MemoryFs>();
    session_ = std::make_unique<LocalSession>(fs_.get());
    session_->MeterWrites(fs_.get(), "mm");
    double gen_s = 0;
    for (const std::string& stmt : SetupStatements(z_, opt_.seed)) {
      std::uint64_t g0 = NowNs();
      if (!Must(*session_, rec_, stmt)) return false;
      if (stmt.rfind("GEN", 0) == 0) gen_s += (NowNs() - g0) / 1e9;
    }
    for (const std::string& stmt : FlockStatements(z_)) {
      if (!Must(*session_, rec_, stmt)) return false;
    }
    if (!Must(*session_, rec_, "CHECKPOINT")) return false;
    // References: DIRECT answers, cross-checked against PLAN.
    refs_.clear();
    for (const std::string flock : {"pairs", "side", "words", "path"}) {
      std::string direct, plan;
      if (!Must(*session_, rec_, "RUN " + flock + " DIRECT LIMIT 1000000",
                &direct) ||
          !Must(*session_, rec_, "RUN " + flock + " PLAN LIMIT 1000000",
                &plan)) {
        return false;
      }
      refs_[flock] = AnswerRows(direct);
      if (refs_[flock].empty() || AnswerRows(plan) != refs_[flock]) {
        rec_.Fail("reference", flock + ": empty, or PLAN != DIRECT");
      }
    }
    maximal_ref_ = AprioriMaximal(session_->shell(), z_);
    if (maximal_ref_.empty()) rec_.Fail("reference", "no maximal itemsets");
    rec_.setup_s.push_back((NowNs() - t0) / 1e9);
    rec_.gen_s.push_back(gen_s);
    return true;
  }

  // Cycle: queries 0-3, append, query 4, OPEN (replays the append), queries
  // 5-8, CHECKPOINT, OPEN (nothing to replay). The append and each OPEN sit
  // between two queries, so a traced cycle can attribute the storage
  // counters they move to them.
  void Loop(Recorder& recorder) {
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(opt_.seconds * 1e9);
    for (int cycle = 0; NowNs() < deadline; ++cycle) {
      const bool traced = opt_.trace && cycle % 2 == 1;
      if (traced) session_->StartTrace();
      for (std::size_t i = 0; i < kQueries.size(); ++i) {
        if (NowNs() >= deadline) break;
        if (i == 4) {
          std::string delta = "deltas/" + std::to_string(cycle) + ".tsv";
          std::string tsv =
              ArchiveDelta(Mix(opt_.seed, 1000 + cycle),
                           10'000'000 + 20L * cycle, z_.items);
          StmtRecord r = NewRecord("append", "write", traced);
          r.user_bytes = tsv.size();
          fs_->Put(delta, std::move(tsv));
          RunExpecting(*session_, recorder, std::move(r),
                       "LOAD archive APPEND FROM " + delta,
                       "appended archive: +20 rows");
        }
        if (i == 5) Open(recorder, "open replay", traced);
        RunQuery(recorder, kQueries[i], traced);
      }
      if (NowNs() >= deadline) break;
      if (traced) {
        for (const std::string flock : {"pairs", "side", "words", "path"}) {
          StmtRecord r = NewRecord("explain " + flock, "plan", true);
          std::string out = session_->Exec("EXPLAIN " + flock, r);
          Keep(*session_, recorder, r, out);
        }
      }
      RunExpecting(*session_, recorder, NewRecord("checkpoint", "write", traced),
                   "CHECKPOINT", "checkpoint:");
      Open(recorder, "open", traced);
      if (traced) session_->Helper("TRACE OFF");
    }
    rec_.window_s = (NowNs() - start) / 1e9;
  }

  void AfterLoop() {
    if (!opt_.trace) return;
    rec_.values["apriori_pairs_ms"] = AprioriPairsMs(
        session_->shell(), z_, refs_["pairs"].size(), rec_);
  }

 private:
  void RunQuery(Recorder& recorder, const Query& q, bool traced) {
    StmtRecord r = NewRecord(QueryKind(q), "query", traced);
    std::string out = session_->Exec(QueryText(q, z_, traced), r);
    if (!q.flock.empty()) {
      CheckRows(out, refs_[q.flock], r);
    } else {
      std::vector<std::string> rows = AnswerRows(out);
      std::sort(rows.begin(), rows.end());
      if (r.ok && rows != maximal_ref_) {
        r.correct = false;
        r.error = "maximal itemsets differ from a-priori";
      }
    }
    Keep(*session_, recorder, r, out);
  }

  void Open(Recorder& recorder, std::string kind, bool traced) {
    RunExpecting(*session_, recorder,
                 NewRecord(std::move(kind), "open", traced), "OPEN mm",
                 "recovery:");
  }

  const Options& opt_;
  RunRecord& rec_;
  const MixSizes z_;
  std::unique_ptr<MemoryFs> fs_;
  std::unique_ptr<LocalSession> session_;
  std::map<std::string, std::vector<std::string>> refs_;
  std::vector<std::string> maximal_ref_;
};

}  // namespace

void RunMineMix(const Options& opt, RunRecord& rec) {
  MineMix mix(opt, rec);
  for (int rep = 0; rep < kSetups; ++rep) {
    if (!mix.Setup()) return;
  }
  Recorder recorder;
  mix.Loop(recorder);
  rec.stmts = recorder.Take();
  mix.AfterLoop();
}

}  // namespace perfbench
