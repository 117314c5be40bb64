// Tests for the observability layer (common/metrics.h): the OpMetrics
// tree, the trace sinks, ScopedOp, and the shell statements that surface
// them (EXPLAIN ANALYZE, TRACE ON|OFF|TO, SHOW TRACE).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "flocks/naive_eval.h"
#include "optimizer/bandit.h"
#include "optimizer/stats.h"
#include "shell/shell.h"

namespace qf {
namespace {

// ---------------------------------------------------------------- OpMetrics

TEST(OpMetricsTest, AddChildReturnsStablePointers) {
  OpMetrics root("plan");
  OpMetrics* first = root.AddChild("step", "s0");
  // Force reallocation of the children vector: pointers must survive.
  std::vector<OpMetrics*> more;
  for (int i = 0; i < 100; ++i) {
    more.push_back(root.AddChild("step", "s" + std::to_string(i + 1)));
  }
  first->rows_out = 7;
  EXPECT_EQ(root.children[0]->rows_out, 7u);
  EXPECT_EQ(root.children.size(), 101u);
  EXPECT_EQ(more[99]->detail, "s100");
  EXPECT_EQ(root.NodeCount(), 102u);
}

TEST(OpMetricsTest, AddChildrenPreallocatesNamedSlots) {
  OpMetrics root("flock");
  std::vector<OpMetrics*> nodes = root.AddChildren(3, "disjunct");
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->detail, "0");
  EXPECT_EQ(nodes[2]->detail, "2");
  std::vector<OpMetrics*> steps = root.AddChildren(2, "step", "wave ");
  EXPECT_EQ(steps[1]->detail, "wave 1");
  EXPECT_EQ(root.children.size(), 5u);
}

TEST(OpMetricsTest, FindIsPreOrder) {
  OpMetrics root("plan");
  OpMetrics* step = root.AddChild("step", "ok1");
  step->AddChild("join", "baskets")->rows_out = 3;
  root.AddChild("join", "late")->rows_out = 9;
  const OpMetrics* found = root.Find("join");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->detail, "baskets");  // depth-first beats sibling order
  EXPECT_EQ(root.Find("scan"), nullptr);
}

TEST(OpMetricsTest, MergeFromAddsCountersAndMergesPositionally) {
  OpMetrics a("flock");
  a.rows_in = 10;
  a.rows_out = 4;
  a.wall_ns = 100;
  a.est_rows = 8.0;
  a.AddChild("scan")->tuples_probed = 5;

  OpMetrics b("flock");
  b.rows_in = 1;
  b.rows_out = 2;
  b.wall_ns = 50;
  b.est_rows = 99.0;  // must NOT overwrite a's estimate
  b.AddChild("scan")->tuples_probed = 7;
  b.AddChild("join", "extra")->rows_out = 11;  // deep-copied in

  a.MergeFrom(b);
  EXPECT_EQ(a.rows_in, 11u);
  EXPECT_EQ(a.rows_out, 6u);
  EXPECT_EQ(a.wall_ns, 150u);
  EXPECT_DOUBLE_EQ(a.est_rows, 8.0);
  ASSERT_EQ(a.children.size(), 2u);
  EXPECT_EQ(a.children[0]->tuples_probed, 12u);
  EXPECT_EQ(a.children[1]->op, "join");
  EXPECT_EQ(a.children[1]->rows_out, 11u);
  // The deep copy is independent of b's subtree.
  b.children[1]->rows_out = 0;
  EXPECT_EQ(a.children[1]->rows_out, 11u);
}

TEST(OpMetricsTest, MergeFromFillsMissingEstimate) {
  OpMetrics a("step");
  OpMetrics b("step");
  b.est_rows = 42.0;
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.est_rows, 42.0);
}

TEST(OpMetricsTest, ToStringRendersCountersAndSkew) {
  OpMetrics node("join", "baskets");
  node.rows_in = 812;
  node.rows_in_right = 140;
  node.rows_out = 1220;
  node.tuples_probed = 812;
  std::string text = node.ToString();
  EXPECT_NE(text.find("join baskets"), std::string::npos);
  EXPECT_NE(text.find("in=812x140"), std::string::npos);
  EXPECT_NE(text.find("out=1220"), std::string::npos);
  EXPECT_NE(text.find("probed=812"), std::string::npos);
  // morsels=0 is omitted; est is absent without an estimate.
  EXPECT_EQ(text.find("morsels"), std::string::npos);
  EXPECT_EQ(text.find("est="), std::string::npos);

  node.est_rows = 610.0;
  text = node.ToString();
  EXPECT_NE(text.find("est=610 (x2.00)"), std::string::npos);

  node.est_rows = 0.0;  // zero estimate, nonzero actual: infinite skew
  EXPECT_NE(node.ToString().find("est=0 (xinf)"), std::string::npos);
  node.rows_out = 0;
  EXPECT_NE(node.ToString().find("est=0 (exact)"), std::string::npos);
}

TEST(OpMetricsTest, ToStringRendersSubHalfEstimateAsZero) {
  // A positive estimate that rounds to 0 prints like a zero estimate,
  // never as a skew against the unrounded value (actual / 1e-17).
  OpMetrics node("join baskets");
  node.rows_out = 9;
  node.est_rows = 1e-17;
  std::string text = node.ToString();
  EXPECT_NE(text.find("est=0 (xinf)"), std::string::npos) << text;
  EXPECT_EQ(text.find("(x9"), std::string::npos) << text;
  node.rows_out = 0;
  EXPECT_NE(node.ToString().find("est=0 (exact)"), std::string::npos);
  node.est_rows = 0.5;  // "%.0f" rounds half to even: prints 0
  EXPECT_NE(node.ToString().find("est=0 (exact)"), std::string::npos);
  node.rows_out = 2;
  node.est_rows = 0.6;
  EXPECT_NE(node.ToString().find("est=1 (x3.33)"), std::string::npos)
      << node.ToString();
}

TEST(OpMetricsTest, ToStringIndentsChildren) {
  OpMetrics root("plan");
  root.AddChild("step", "ok1")->AddChild("scan", "baskets");
  std::string text = root.ToString();
  EXPECT_NE(text.find("\n  step ok1"), std::string::npos);
  EXPECT_NE(text.find("\n    scan baskets"), std::string::npos);
}

TEST(OpMetricsTest, ToJsonIsNestedAndEscaped) {
  OpMetrics root("plan", "he said \"hi\"\n");
  root.rows_out = 3;
  root.est_rows = 2.0;
  root.AddChild("scan", "baskets")->rows_in = 9;
  std::string json = root.ToJson();
  EXPECT_NE(json.find("\"op\":\"plan\""), std::string::npos);
  EXPECT_NE(json.find("he said \\\"hi\\\"\\n"), std::string::npos);
  EXPECT_NE(json.find("\"rows_out\":3"), std::string::npos);
  EXPECT_NE(json.find("\"est_rows\":2"), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{\"op\":\"scan\""), std::string::npos);
  // A leaf without an estimate omits est_rows and children entirely.
  std::string leaf = root.children[0]->ToJson();
  EXPECT_EQ(leaf.find("est_rows"), std::string::npos);
  EXPECT_EQ(leaf.find("children"), std::string::npos);
}

// -------------------------------------------------------------- trace sinks

TEST(TraceTest, FormatTraceEventShapes) {
  std::string begin = FormatTraceEvent('B', "join", "baskets", 123, 0);
  EXPECT_EQ(begin.find("{\"ev\":\"B\",\"op\":\"join\",\"detail\":\"baskets\""),
            0u);
  EXPECT_NE(begin.find("\"t_ns\":123"), std::string::npos);
  EXPECT_NE(begin.find("\"tid\":\""), std::string::npos);
  EXPECT_EQ(begin.find("rows_out"), std::string::npos);  // B has no rows

  std::string end = FormatTraceEvent('E', "join", "baskets", 456, 7);
  EXPECT_NE(end.find("\"ev\":\"E\""), std::string::npos);
  EXPECT_NE(end.find(",\"rows_out\":7}"), std::string::npos);
}

TEST(TraceTest, MemoryTraceSinkBuffersAndClears) {
  MemoryTraceSink sink;
  sink.BeginSpan("scan", "baskets", 10);
  sink.EndSpan("scan", "baskets", 20, 5);
  EXPECT_EQ(sink.event_count(), 2u);
  std::vector<std::string> lines = sink.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ev\":\"B\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"rows_out\":5"), std::string::npos);
  sink.Clear();
  EXPECT_EQ(sink.event_count(), 0u);
}

TEST(TraceTest, MemoryTraceSinkIsThreadSafe) {
  MemoryTraceSink sink;
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&sink, t] {
      for (int i = 0; i < kSpans; ++i) {
        sink.BeginSpan("w", std::to_string(t), static_cast<std::uint64_t>(i));
        sink.EndSpan("w", std::to_string(t), static_cast<std::uint64_t>(i),
                     1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(sink.event_count(),
            static_cast<std::size_t>(kThreads) * kSpans * 2);
  // Every buffered line is a whole event, never an interleaved fragment.
  for (const std::string& line : sink.Lines()) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

TEST(TraceTest, JsonLinesTraceSinkWritesFile) {
  std::string path =
      (std::filesystem::temp_directory_path() / "qf_trace_test.jsonl")
          .string();
  {
    JsonLinesTraceSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.BeginSpan("flock", "pairs", 1);
    sink.EndSpan("flock", "pairs", 2, 9);
    EXPECT_EQ(sink.event_count(), 2u);
  }  // destructor flushes + closes
  std::ifstream in(path);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
  }
  EXPECT_EQ(n, 2u);
  std::remove(path.c_str());
}

TEST(TraceTest, JsonLinesTraceSinkReportsOpenFailure) {
  JsonLinesTraceSink sink("/nonexistent-dir-qf/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.BeginSpan("x", "", 0);  // must not crash
  EXPECT_EQ(sink.event_count(), 0u);
}

// ----------------------------------------------------------------- ScopedOp

TEST(ScopedOpTest, AccumulatesWallTimeAndEmitsSpans) {
  OpMetrics node("join", "baskets");
  MemoryTraceSink sink;
  {
    ScopedOp span(&node, &sink);
    node.rows_out = 42;
  }
  EXPECT_GT(node.wall_ns, 0u);
  ASSERT_EQ(sink.event_count(), 2u);
  std::vector<std::string> lines = sink.Lines();
  EXPECT_NE(lines[0].find("\"ev\":\"B\",\"op\":\"join\""), std::string::npos);
  // The end span carries the rows_out the region body filled in.
  EXPECT_NE(lines[1].find("\"rows_out\":42"), std::string::npos);

  // Re-entering the same node accumulates rather than overwrites.
  std::uint64_t first = node.wall_ns;
  { ScopedOp span(&node); }
  EXPECT_GE(node.wall_ns, first);
}

TEST(ScopedOpTest, NullMetricsIsInert) {
  // The disabled path: no metrics node means no clock reads and no trace
  // events even when a sink is supplied.
  MemoryTraceSink sink;
  { ScopedOp span(nullptr, &sink); }
  EXPECT_EQ(sink.event_count(), 0u);
}

// ------------------------------------------------------------------- shell

std::string MustRun(Shell& shell, std::string_view statement) {
  Result<std::string> out = shell.Execute(statement);
  EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << statement;
  return out.ok() ? *out : std::string();
}

void DeclarePairs(Shell& shell) {
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=200 n_items=30 avg_size=6 "
          "theta=0.8 seed=5");
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 8");
}

TEST(ShellMetricsTest, ExplainAnalyzeRendersMetricsTree) {
  Shell shell;
  DeclarePairs(shell);
  std::string out = MustRun(shell, "EXPLAIN ANALYZE pairs");
  EXPECT_NE(out.find("metrics:"), std::string::npos);
  EXPECT_NE(out.find("plan"), std::string::npos);
  EXPECT_NE(out.find("scan baskets"), std::string::npos);
  EXPECT_NE(out.find("join baskets"), std::string::npos);
  EXPECT_NE(out.find("group_by"), std::string::npos);
  EXPECT_NE(out.find("result:"), std::string::npos);
  // The support-style filter gets an optimizer estimate: skew renders.
  EXPECT_NE(out.find("est="), std::string::npos);
}

// The flock shapes the strategy differential sweeps: Fig. 2 basket pairs,
// Fig. 3 side effects with a negated subgoal, and a Fig. 4-style
// three-disjunct union. Small enough for the §2 oracle to enumerate.
struct DifferentialFlock {
  const char* name;
  const char* query;
  double support;
};

constexpr DifferentialFlock kDifferentialFlocks[] = {
    {"pairs", "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2", 6},
    {"side",
     "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND diagnoses(P,D) "
     "AND NOT causes(D,$s)",
     3},
    {"words",
     "answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2 "
     "answer(A) :- link(A,D1,D2) AND inAnchor(A,$1) AND inTitle(D2,$2) "
     "AND $1 < $2 "
     "answer(A) :- link(A,D1,D2) AND inAnchor(A,$2) AND inTitle(D2,$1) "
     "AND $1 < $2",
     3},
};

void DeclareDifferentialFlocks(Shell& shell) {
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=80 n_items=12 avg_size=4 seed=5");
  MustRun(shell,
          "GEN MEDICAL m n_patients=80 n_diseases=5 n_symptoms=8 "
          "n_medicines=8 seed=6");
  MustRun(shell, "GEN WEB w n_docs=40 n_words=16 n_anchors=40 seed=7");
  for (const DifferentialFlock& f : kDifferentialFlocks) {
    MustRun(shell, std::string("FLOCK ") + f.name + " QUERY " + f.query +
                       " FILTER COUNT >= " + std::to_string(f.support));
  }
}

// RUN's result preview is everything after its header line; EXPLAIN
// ANALYZE's is everything after "result:\n".
std::string RunPreview(const std::string& run) {
  return run.substr(run.find('\n') + 1);
}
std::string AnalyzePreview(const std::string& analyzed) {
  std::size_t marker = analyzed.find("result:\n");
  return marker == std::string::npos ? "(no result section)"
                                     : analyzed.substr(marker + 8);
}
// The statement's mode label: "(LEARNED:direct:cost, threads 4)" ->
// "LEARNED:direct:cost".
std::string ModeLabel(const std::string& out) {
  std::size_t open = out.find('(');
  std::size_t close = out.find_first_of(",)", open);
  return out.substr(open + 1, close - open - 1);
}

// The single strategy path, differentially: for every mode word and every
// arm the bandit enumerates, on the basket, negated medical and union
// flocks at THREADS 1 and 4, RUN and EXPLAIN ANALYZE return the same
// answer as the §2 generate-and-test oracle (NaiveEvaluateFlock).
// Instrumentation, strategy choice and the learned optimizer can only
// change speed, never results.
TEST(ShellMetricsTest, ExplainAnalyzeMatchesRunResult) {
  Shell shell;
  DeclareDifferentialFlocks(shell);
  const std::string limit = " LIMIT 1000000";
  for (const DifferentialFlock& f : kDifferentialFlocks) {
    Result<QueryFlock> flock =
        MakeFlock(f.query, FilterCondition::MinSupport(f.support));
    ASSERT_TRUE(flock.ok()) << flock.status().ToString();
    Result<Relation> oracle = NaiveEvaluateFlock(*flock, shell.database());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_FALSE(oracle->empty()) << f.name << ": sweep would prove nothing";
    oracle->SortRows();
    const std::string expected = oracle->ToString(1000000);
    const bool single = flock->query.disjuncts.size() == 1;
    std::vector<Strategy> arms = EnumerateArms(
        *flock, CostModel(DatabaseStats::Compute(shell.database())), single,
        shell.dynamic_knobs());

    for (const char* threads : {" THREADS 1", " THREADS 4"}) {
      for (const char* mode : {"DIRECT", "PLAN", "DYNAMIC"}) {
        std::string args = std::string(f.name) + " " + mode + limit + threads;
        Result<std::string> run = shell.Execute("RUN " + args);
        Result<std::string> analyzed = shell.Execute("EXPLAIN ANALYZE " + args);
        if (!single && std::string(mode) == "DYNAMIC") {
          // §4.4 pruning of a union is unsound; both statements refuse.
          ASSERT_FALSE(run.ok()) << args;
          ASSERT_FALSE(analyzed.ok()) << args;
          EXPECT_EQ(run.status().code(), analyzed.status().code()) << args;
          continue;
        }
        ASSERT_TRUE(run.ok()) << args << ": " << run.status().ToString();
        ASSERT_TRUE(analyzed.ok()) << args << ": "
                                   << analyzed.status().ToString();
        EXPECT_EQ(ModeLabel(*run), mode) << args;
        EXPECT_EQ(RunPreview(*run), expected) << "RUN " << args;
        EXPECT_EQ(AnalyzePreview(*analyzed), expected)
            << "EXPLAIN ANALYZE " << args;
      }

      // Learned mode: the bandit's warm-up plays every unplayed arm once,
      // in enumeration order, so |arms| statements on a fresh session
      // sweep them all — once through RUN, once through EXPLAIN ANALYZE.
      for (const char* statement : {"RUN ", "EXPLAIN ANALYZE "}) {
        Shell learned;
        DeclareDifferentialFlocks(learned);
        MustRun(learned, "SET OPTIMIZER LEARNED");
        const bool analyze = statement[0] == 'E';
        for (const Strategy& arm : arms) {
          std::string out =
              MustRun(learned, statement + std::string(f.name) + limit +
                                   threads);
          EXPECT_EQ(ModeLabel(out), "LEARNED:" + arm.id)
              << statement << f.name << threads;
          EXPECT_EQ(analyze ? AnalyzePreview(out) : RunPreview(out), expected)
              << statement << f.name << threads << " arm " << arm.id;
        }
      }
    }
  }
}

// DYNAMIC resolves predicates as DIRECT does, DEFINE'd views included:
// a flock over an intermediate predicate (Ex. 2.2) answers the same
// through RUN and EXPLAIN ANALYZE DYNAMIC, RUN DIRECT, and the §2 oracle
// over the same flock with the view's body inlined.
TEST(ShellMetricsTest, DynamicOverViewMatchesDirectAndOracle) {
  Shell shell;
  MustRun(shell,
          "GEN MEDICAL m n_patients=120 n_diseases=5 n_symptoms=8 "
          "n_medicines=8 seed=6");
  MustRun(shell,
          "DEFINE unexplained(P,S) :- exhibits(P,S) AND diagnoses(P,D) AND "
          "NOT causes(D,S)");
  MustRun(shell,
          "FLOCK side QUERY answer(P) :- unexplained(P,$s) AND "
          "treatments(P,$m) FILTER COUNT >= 3");
  Result<QueryFlock> inlined = MakeFlock(
      "answer(P) :- exhibits(P,$s) AND diagnoses(P,D) AND NOT causes(D,$s) "
      "AND treatments(P,$m)",
      FilterCondition::MinSupport(3));
  ASSERT_TRUE(inlined.ok()) << inlined.status().ToString();
  Result<Relation> oracle = NaiveEvaluateFlock(*inlined, shell.database());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_FALSE(oracle->empty());
  oracle->SortRows();
  const std::string expected = oracle->ToString(1000000);
  for (const char* threads : {" THREADS 1", " THREADS 4"}) {
    const std::string args = std::string(" LIMIT 1000000") + threads;
    std::string direct = MustRun(shell, "RUN side DIRECT" + args);
    std::string dynamic = MustRun(shell, "RUN side DYNAMIC" + args);
    std::string analyzed =
        MustRun(shell, "EXPLAIN ANALYZE side DYNAMIC" + args);
    EXPECT_EQ(RunPreview(direct), expected) << threads;
    EXPECT_EQ(RunPreview(dynamic), expected) << threads;
    EXPECT_EQ(AnalyzePreview(analyzed), expected) << threads;
    EXPECT_NE(analyzed.find("dynamic decisions:"), std::string::npos);
  }
}

TEST(ShellMetricsTest, ExplainAnalyzeDynamicShowsDecisions) {
  Shell shell;
  DeclarePairs(shell);
  std::string out = MustRun(shell, "EXPLAIN ANALYZE pairs DYNAMIC");
  EXPECT_NE(out.find("dynamic decisions:"), std::string::npos);
  EXPECT_NE(out.find("dyn_filter"), std::string::npos);
  EXPECT_NE(out.find("metrics:"), std::string::npos);
}

TEST(ShellMetricsTest, ExplainAnalyzeThreadsOption) {
  Shell shell;
  DeclarePairs(shell);
  std::string out = MustRun(shell, "EXPLAIN ANALYZE pairs PLAN THREADS 4");
  EXPECT_NE(out.find("threads 4"), std::string::npos);
}

TEST(ShellMetricsTest, ExplainAnalyzeErrors) {
  Shell shell;
  DeclarePairs(shell);
  EXPECT_FALSE(shell.Execute("EXPLAIN ANALYZE no_such_flock").ok());
  EXPECT_FALSE(shell.Execute("EXPLAIN ANALYZE pairs SIDEWAYS").ok());
  EXPECT_FALSE(shell.Execute("EXPLAIN ANALYZE pairs LIMIT x").ok());
  EXPECT_FALSE(shell.Execute("EXPLAIN ANALYZE pairs THREADS -2").ok());
}

TEST(ShellMetricsTest, TraceOnBuffersSpans) {
  Shell shell;
  DeclarePairs(shell);
  EXPECT_FALSE(shell.tracing());
  std::string on = MustRun(shell, "TRACE ON");
  EXPECT_NE(on.find("trace on"), std::string::npos);
  EXPECT_TRUE(shell.tracing());

  MustRun(shell, "RUN pairs PLAN LIMIT 2");
  std::string trace = MustRun(shell, "SHOW TRACE");
  EXPECT_NE(trace.find("\"ev\":\"B\""), std::string::npos);
  EXPECT_NE(trace.find("\"ev\":\"E\""), std::string::npos);
  EXPECT_NE(trace.find("events"), std::string::npos);

  std::string off = MustRun(shell, "TRACE OFF");
  EXPECT_NE(off.find("trace off"), std::string::npos);
  EXPECT_FALSE(shell.tracing());
  EXPECT_NE(MustRun(shell, "SHOW TRACE").find("(trace is off)"),
            std::string::npos);
  // OFF is idempotent.
  EXPECT_NE(MustRun(shell, "TRACE OFF").find("already off"),
            std::string::npos);
}

TEST(ShellMetricsTest, TraceToWritesJsonLinesFile) {
  Shell shell;
  DeclarePairs(shell);
  std::string path =
      (std::filesystem::temp_directory_path() / "qf_shell_trace.jsonl")
          .string();
  std::string to = MustRun(shell, "TRACE TO " + path);
  EXPECT_NE(to.find("tracing to"), std::string::npos);
  MustRun(shell, "EXPLAIN ANALYZE pairs PLAN");
  EXPECT_NE(MustRun(shell, "SHOW TRACE").find(path), std::string::npos);
  MustRun(shell, "TRACE OFF");  // closes the file

  std::ifstream in(path);
  std::string line;
  std::size_t events = 0;
  bool saw_join = false;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"op\":\"join\"") != std::string::npos) saw_join = true;
    ++events;
  }
  EXPECT_GT(events, 0u);
  EXPECT_TRUE(saw_join);
  std::remove(path.c_str());
}

TEST(ShellMetricsTest, TraceErrors) {
  Shell shell;
  EXPECT_FALSE(shell.Execute("TRACE").ok());
  EXPECT_FALSE(shell.Execute("TRACE TO").ok());
  EXPECT_FALSE(shell.Execute("TRACE SIDEWAYS").ok());
  Result<std::string> bad =
      shell.Execute("TRACE TO /nonexistent-dir-qf/t.jsonl");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("cannot open"), std::string::npos);
  EXPECT_FALSE(shell.tracing());  // failed install leaves tracing off
}

TEST(ShellMetricsTest, RunUnderTraceMatchesUntraced) {
  // Tracing a RUN must not change its result text (the header's timing
  // varies; compare the preview part).
  Shell shell;
  DeclarePairs(shell);
  std::string plain = MustRun(shell, "RUN pairs PLAN LIMIT 4");
  MustRun(shell, "TRACE ON");
  std::string traced = MustRun(shell, "RUN pairs PLAN LIMIT 4");
  EXPECT_EQ(plain.substr(plain.find('\n')), traced.substr(traced.find('\n')));
  EXPECT_GT(MustRun(shell, "SHOW TRACE").size(), 0u);
}

}  // namespace
}  // namespace qf
