// Tests for the query-flocks shell: statement parsing, the full command
// set, error handling, and end-to-end scripts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/metrics.h"
#include "common/vfs.h"
#include "flocks/flock.h"
#include "optimizer/executor_support.h"
#include "optimizer/plan_search.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace qf {
namespace {

std::string MustRun(Shell& shell, std::string_view statement) {
  Result<std::string> out = shell.Execute(statement);
  EXPECT_TRUE(out.ok()) << out.status().ToString() << " for: " << statement;
  return out.ok() ? *out : std::string();
}

TEST(ShellTest, HelpAndUnknownCommand) {
  Shell shell;
  EXPECT_NE(MustRun(shell, "HELP").find("FLOCK"), std::string::npos);
  Result<std::string> bad = shell.Execute("FROBNICATE x");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown command"),
            std::string::npos);
}

TEST(ShellTest, EmptyStatementIsNoop) {
  Shell shell;
  EXPECT_EQ(MustRun(shell, "   "), "");
}

TEST(ShellTest, GenShowAndSave) {
  Shell shell;
  std::string out = MustRun(
      shell, "GEN BASKETS baskets n_baskets=50 n_items=10 seed=3");
  EXPECT_NE(out.find("generated baskets"), std::string::npos);
  EXPECT_TRUE(shell.database().Has("baskets"));

  std::string relations = MustRun(shell, "SHOW RELATIONS");
  EXPECT_NE(relations.find("baskets(BID, Item)"), std::string::npos);

  std::string preview = MustRun(shell, "SHOW baskets");
  EXPECT_NE(preview.find("rows]"), std::string::npos);

  std::string path =
      (std::filesystem::temp_directory_path() / "qf_shell_save.tsv")
          .string();
  MustRun(shell, "SAVE baskets TO " + path);

  Shell other;
  std::string loaded = MustRun(other, "LOAD baskets FROM " + path);
  EXPECT_NE(loaded.find("loaded baskets"), std::string::npos);
  EXPECT_EQ(other.database().Get("baskets").size(),
            shell.database().Get("baskets").size());
  std::remove(path.c_str());
}

TEST(ShellTest, GenRejectsBadKey) {
  Shell shell;
  EXPECT_FALSE(shell.Execute("GEN BASKETS b wibble=3").ok());
  EXPECT_FALSE(shell.Execute("GEN WIDGETS b").ok());
  // Values outside a field's range, or that break a generator
  // precondition (an empty Zipf domain, a negative size), are typed
  // errors — never a narrowing cast or a crash in the generator.
  for (const char* statement :
       {"GEN GRAPH g n_nodes=0", "GEN WEB w n_words=0",
        "GEN MEDICAL m n_symptoms=0", "GEN BASKETS b n_items=0",
        "GEN WEB w n_docs=0", "GEN MEDICAL m n_diseases=0",
        "GEN MEDICAL m n_medicines=0", "GEN BASKETS b n_baskets=-1",
        "GEN BASKETS b avg_size=-2", "GEN BASKETS b avg_size=1e300",
        "GEN GRAPH g degree=-1", "GEN BASKETS b n_baskets=2.5",
        "GEN BASKETS b n_items=4294967296", "GEN BASKETS b seed=-1",
        "GEN BASKETS b seed=1e30", "GEN BASKETS b theta=-0.5",
        "GEN MEDICAL m theta=-1", "GEN BASKETS b locality=1.5",
        "GEN WEB w topics=-3"}) {
    Result<std::string> out = shell.Execute(statement);
    ASSERT_FALSE(out.ok()) << statement;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << statement;
  }
  EXPECT_TRUE(shell.database().Names().empty());
  // The boundary values themselves are accepted.
  EXPECT_EQ(MustRun(shell, "GEN BASKETS b n_baskets=0 n_items=1"),
            "generated b: 0 rows\n");
  EXPECT_NE(MustRun(shell, "GEN GRAPH g n_nodes=1 degree=0 seed=0")
                .find("generated g: "),
            std::string::npos);
}

TEST(ShellTest, FlockDeclareRunDirectAndPlan) {
  Shell shell;
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=300 n_items=40 avg_size=6 "
          "theta=0.8 locality=0.5 topics=8 seed=5");
  std::string declared = MustRun(
      shell,
      "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) AND "
      "$1 < $2 FILTER COUNT >= 8");
  EXPECT_NE(declared.find("flock pairs declared"), std::string::npos);
  EXPECT_TRUE(shell.HasFlock("pairs"));

  std::string direct = MustRun(shell, "RUN pairs DIRECT LIMIT 3");
  std::string plan = MustRun(shell, "RUN pairs PLAN LIMIT 3");
  std::string dynamic = MustRun(shell, "RUN pairs DYNAMIC LIMIT 3");
  // All strategies report the same assignment count.
  auto count_of = [](const std::string& s) {
    return s.substr(0, s.find(" assignments"));
  };
  EXPECT_EQ(count_of(direct), count_of(plan));
  EXPECT_EQ(count_of(direct), count_of(dynamic));
}

TEST(ShellTest, ExplainShowsPlanAndEstimates) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=200 n_items=30 seed=7");
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 10");
  std::string out = MustRun(shell, "EXPLAIN pairs");
  EXPECT_NE(out.find("result($1,$2) := FILTER"), std::string::npos);
  EXPECT_NE(out.find("estimated cost"), std::string::npos);
}

TEST(ShellTest, SqlEmitsQuery) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=50 n_items=10 seed=9");
  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 5");
  std::string sql = MustRun(shell, "SQL pairs");
  EXPECT_NE(sql.find("GROUP BY"), std::string::npos);
  EXPECT_NE(sql.find("HAVING COUNT(*) >= 5"), std::string::npos);
}

TEST(ShellTest, FilterSpecVariants) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=50 n_items=10 seed=11");
  // SUM over a named head variable needs the weight relation; declare the
  // flock only (RUN would need importance data).
  std::string declared = MustRun(
      shell,
      "FLOCK heavy QUERY answer(B,W) :- baskets(B,$1) AND importance(B,W) "
      "FILTER SUM(W) >= 12.5");
  EXPECT_NE(declared.find("SUM(answer.W) >= 12.5"), std::string::npos);

  EXPECT_FALSE(shell
                   .Execute("FLOCK bad QUERY answer(B) :- baskets(B,$1) "
                            "FILTER SUM >= 5")
                   .ok());
  EXPECT_FALSE(shell
                   .Execute("FLOCK bad QUERY answer(B) :- baskets(B,$1) "
                            "FILTER COUNT >= nope")
                   .ok());
  EXPECT_FALSE(shell
                   .Execute("FLOCK bad QUERY answer(B) :- baskets(B,$1) "
                            "FILTER MAX(Z) >= 5")
                   .ok());
}

TEST(ShellTest, DefineAndRunWithView) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=200 n_items=25 seed=13");
  MustRun(shell, "DEFINE bought(B,I) :- baskets(B,I)");
  std::string relations = MustRun(shell, "SHOW RELATIONS");
  EXPECT_NE(relations.find("view]"), std::string::npos);

  MustRun(shell,
          "FLOCK pairs QUERY answer(B) :- bought(B,$1) AND bought(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 5");
  std::string via_view = MustRun(shell, "RUN pairs DIRECT LIMIT 2");

  MustRun(shell,
          "FLOCK base_pairs QUERY answer(B) :- baskets(B,$1) AND "
          "baskets(B,$2) AND $1 < $2 FILTER COUNT >= 5");
  std::string via_base = MustRun(shell, "RUN base_pairs DIRECT LIMIT 2");
  // Same counts through the view and the base relation (ignore timings).
  auto count_of = [](const std::string& s) {
    std::size_t colon = s.find(':');
    std::size_t word = s.find(" assignments");
    return s.substr(colon, word - colon);
  };
  EXPECT_EQ(count_of(via_view), count_of(via_base));
}

TEST(ShellTest, DefineRejectsRecursion) {
  Shell shell;
  EXPECT_FALSE(shell.Execute("DEFINE tc(X,Y) :- tc(X,Z) AND arc(Z,Y)").ok());
}

TEST(ShellTest, RunErrors) {
  Shell shell;
  EXPECT_EQ(shell.Execute("RUN nothing").status().code(),
            StatusCode::kNotFound);
  MustRun(shell, "GEN BASKETS baskets n_baskets=20 n_items=5 seed=1");
  MustRun(shell,
          "FLOCK p QUERY answer(B) :- baskets(B,$1) FILTER COUNT >= 2");
  EXPECT_FALSE(shell.Execute("RUN p SIDEWAYS").ok());
  EXPECT_FALSE(shell.Execute("RUN p LIMIT x").ok());
}

TEST(ShellTest, GenMedicalWebGraph) {
  Shell shell;
  std::string medical =
      MustRun(shell, "GEN MEDICAL med n_patients=60 theta=0.8 seed=3");
  EXPECT_NE(medical.find("generated diagnoses"), std::string::npos);
  EXPECT_TRUE(shell.database().Has("exhibits"));
  EXPECT_TRUE(shell.database().Has("causes"));

  std::string web = MustRun(
      shell, "GEN WEB corpus n_docs=40 n_words=30 n_anchors=50 seed=4");
  EXPECT_TRUE(shell.database().Has("inTitle"));
  EXPECT_TRUE(shell.database().Has("link"));

  std::string graph =
      MustRun(shell, "GEN GRAPH arc n_nodes=30 degree=3 seed=5");
  EXPECT_TRUE(shell.database().Has("arc"));

  EXPECT_FALSE(shell.Execute("GEN MEDICAL med wibble=1").ok());
}

TEST(ShellTest, SaveAndLoadDatabase) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=40 n_items=8 seed=6");
  MustRun(shell, "GEN GRAPH arc n_nodes=20 degree=2 seed=7");
  std::string dir =
      (std::filesystem::temp_directory_path() / "qf_shell_db").string();
  std::string saved = MustRun(shell, "SAVEDB " + dir);
  EXPECT_NE(saved.find("saved 2 relations"), std::string::npos);

  Shell other;
  std::string loaded = MustRun(other, "LOADDB " + dir);
  EXPECT_NE(loaded.find("loaded arc"), std::string::npos);
  EXPECT_EQ(other.database().Get("baskets").size(),
            shell.database().Get("baskets").size());
  EXPECT_EQ(other.database().Get("arc").size(),
            shell.database().Get("arc").size());
  std::filesystem::remove_all(dir);

  EXPECT_FALSE(other.Execute("LOADDB /nonexistent/qf_nowhere").ok());
}

TEST(ShellTest, MaximalCommand) {
  Shell shell;
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=200 n_items=20 avg_size=5 "
          "theta=0.7 locality=0.6 topics=4 seed=17");
  std::string out = MustRun(shell, "MAXIMAL baskets SUPPORT 8 MAXSIZE 4");
  EXPECT_NE(out.find("maximal frequent itemsets"), std::string::npos);
  EXPECT_NE(out.find("frequent per level:"), std::string::npos);

  EXPECT_FALSE(shell.Execute("MAXIMAL baskets").ok());          // no SUPPORT
  EXPECT_FALSE(shell.Execute("MAXIMAL nowhere SUPPORT 5").ok());
  EXPECT_FALSE(shell.Execute("MAXIMAL baskets SUPPORT x").ok());
}

TEST(ShellTest, MaximalRejectsBadArguments) {
  Shell shell;
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=200 n_items=20 avg_size=5 "
          "theta=0.7 locality=0.6 topics=4 seed=17");
  // MAXSIZE is a whole number >= 0 and SUPPORT a number > 0: a negative
  // or fractional MAXSIZE is rejected, never cast to an unbounded or
  // truncated size.
  for (const char* statement :
       {"MAXIMAL baskets SUPPORT 8 MAXSIZE -1",
        "MAXIMAL baskets SUPPORT 8 MAXSIZE 2.7",
        "MAXIMAL baskets SUPPORT 8 MAXSIZE x", "MAXIMAL baskets SUPPORT -3",
        "MAXIMAL baskets SUPPORT 0", "MAXIMAL baskets SUPPORT 1e999"}) {
    Result<std::string> out = shell.Execute(statement);
    ASSERT_FALSE(out.ok()) << statement;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << statement;
  }
  // MAXSIZE 0 means unbounded; MAXSIZE 2 stops after the pair level.
  std::string unbounded = MustRun(shell, "MAXIMAL baskets SUPPORT 8 MAXSIZE 0");
  EXPECT_EQ(unbounded, MustRun(shell, "MAXIMAL baskets SUPPORT 8"));
  auto levels = [](const std::string& out) {
    std::istringstream counts(out.substr(out.find("level:") + 6));
    std::vector<std::size_t> per_level;
    for (std::size_t n; counts >> n;) per_level.push_back(n);
    return per_level;
  };
  std::vector<std::size_t> all_levels = levels(unbounded);
  ASSERT_GT(all_levels.size(), 2u) << unbounded;
  all_levels.resize(2);
  EXPECT_EQ(levels(MustRun(shell, "MAXIMAL baskets SUPPORT 8 MAXSIZE 2")),
            all_levels);
  MustRun(shell, "MAXIMAL baskets SUPPORT 8.5");  // fractional is fine
}

TEST(ShellTest, ScriptExecutesStatementsInOrder) {
  Shell shell;
  Result<std::string> out = shell.ExecuteScript(R"(
      # build data, declare, run
      GEN BASKETS baskets n_baskets=100 n_items=12 seed=21;
      FLOCK pairs
        QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
        FILTER COUNT >= 4;
      RUN pairs DIRECT LIMIT 2;
  )");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("generated baskets"), std::string::npos);
  EXPECT_NE(out->find("assignments"), std::string::npos);
}

TEST(ShellTest, ScriptStopsAtFirstError) {
  Shell shell;
  Result<std::string> out = shell.ExecuteScript(
      "GEN BASKETS b n_baskets=10 n_items=3 seed=1; BOGUS; SHOW RELATIONS;");
  EXPECT_FALSE(out.ok());
  // The first statement still took effect.
  EXPECT_TRUE(shell.database().Has("b"));
}

TEST(ShellTest, ScriptHandlesQuotedSemicolons) {
  Shell shell;
  MustRun(shell, "GEN BASKETS baskets n_baskets=10 n_items=3 seed=2");
  Result<std::string> out = shell.ExecuteScript(
      "FLOCK q QUERY answer(B) :- baskets(B,$1) AND baskets(B,'a;b') "
      "FILTER COUNT >= 1;");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(shell.HasFlock("q"));
}

// --- Resource governor statements ---

// A workload slow enough (tens of ms) that a 1 ms deadline always lands
// mid-flight, but small enough to keep the suite quick.
void LoadGovernorWorkload(Shell& shell) {
  MustRun(shell,
          "GEN BASKETS gb n_baskets=4000 n_items=300 avg_size=8 seed=5");
  MustRun(shell,
          "FLOCK gf QUERY answer(B) :- gb(B,$1) AND gb(B,$2) AND $1 < $2 "
          "FILTER COUNT >= 8");
}

TEST(ShellGovernorTest, SetTimeoutFailsFastAndSessionStaysUsable) {
  Shell shell;
  LoadGovernorWorkload(shell);
  MustRun(shell, "SET TIMEOUT 1");

  auto start = std::chrono::steady_clock::now();
  Result<std::string> out = shell.Execute("RUN gf");
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  // The acceptance bound is ~50 ms of overshoot past the 1 ms deadline;
  // leave headroom for loaded CI machines.
  EXPECT_LT(ms, 250.0);

  // The statement died, not the session.
  MustRun(shell, "SET TIMEOUT 0");
  std::string rerun = MustRun(shell, "RUN gf LIMIT 2");
  EXPECT_NE(rerun.find("assignments"), std::string::npos);
}

TEST(ShellGovernorTest, SetMemoryTripsTyped) {
  Shell shell;
  LoadGovernorWorkload(shell);
  MustRun(shell, "SET MEMORY 1");
  Result<std::string> out = shell.Execute("RUN gf");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  MustRun(shell, "SET MEMORY 0");
  MustRun(shell, "RUN gf LIMIT 2");
}

TEST(ShellGovernorTest, GovernedRunMatchesUngovernedAtEveryThreadCount) {
  for (const char* threads : {"1", "4"}) {
    Shell shell;
    LoadGovernorWorkload(shell);
    std::string baseline =
        MustRun(shell, std::string("RUN gf THREADS ") + threads);
    MustRun(shell, "SET TIMEOUT 60000");
    MustRun(shell, "SET MEMORY 1024");
    std::string governed =
        MustRun(shell, std::string("RUN gf THREADS ") + threads);
    // Strip the timing prefix line; row previews must match exactly.
    EXPECT_EQ(baseline.substr(baseline.find('\n')),
              governed.substr(governed.find('\n')))
        << "threads=" << threads;
  }
}

TEST(ShellGovernorTest, ExplainAnalyzeReportsAccountedBytes) {
  Shell shell;
  MustRun(shell, "GEN BASKETS b n_baskets=500 n_items=60 seed=3");
  MustRun(shell, "FLOCK f QUERY answer(B) :- b(B,$1) FILTER COUNT >= 4");
  std::string out = MustRun(shell, "EXPLAIN ANALYZE f PLAN LIMIT 2");
  EXPECT_NE(out.find("governor: peak "), std::string::npos) << out;
  EXPECT_NE(out.find(" mem="), std::string::npos) << out;
}

TEST(ShellGovernorTest, CancelFlagAbortsStatement) {
  Shell shell;
  std::atomic<bool> flag{true};  // pre-set: cancel at the first poll
  shell.set_cancel_flag(&flag);
  LoadGovernorWorkload(shell);
  Result<std::string> out = shell.Execute("RUN gf");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  // REPL clears the flag between statements; the session recovers.
  flag.store(false);
  MustRun(shell, "RUN gf LIMIT 2");
}

TEST(ShellGovernorTest, SetRejectsBadArguments) {
  Shell shell;
  EXPECT_FALSE(shell.Execute("SET TIMEOUT").ok());
  EXPECT_FALSE(shell.Execute("SET TIMEOUT -5").ok());
  EXPECT_FALSE(shell.Execute("SET TIMEOUT abc").ok());
  EXPECT_FALSE(shell.Execute("SET MEMORY -1").ok());
  EXPECT_FALSE(shell.Execute("SET GIZMO 5").ok());
  EXPECT_NE(MustRun(shell, "SET TIMEOUT 0").find("off"), std::string::npos);
  EXPECT_NE(MustRun(shell, "SET MEMORY 64").find("64 MB"),
            std::string::npos);
  EXPECT_NE(MustRun(shell, "HELP").find("SET TIMEOUT"), std::string::npos);
}

// A knob value its type cannot hold is rejected, never narrowed or
// wrapped into range: 2^32 threads would narrow to 0 workers, and
// 2^44 + 1 MB would wrap to a 1 MB budget. Nothing is applied or logged.
TEST(ShellGovernorTest, KnobsRejectValuesTheirTypeCannotHold) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  MustRun(shell, "GEN BASKETS b n_baskets=40 n_items=8 seed=3");
  MustRun(shell,
          "FLOCK f QUERY answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 "
          "FILTER COUNT >= 3");
  for (const char* statement :
       {"THREADS 4294967296", "THREADS 99999999999999999999",
        "RUN f THREADS 4294967296", "EXPLAIN ANALYZE f THREADS 4294967296",
        "RUN f LIMIT 99999999999999999999", "SET MEMORY 17592186044417",
        "SET BUFFER 17592186044417", "SET MEMORY 9223372036854775807",
        "SET TIMEOUT 9223372036854775807"}) {
    Result<std::string> out = shell.Execute(statement);
    ASSERT_FALSE(out.ok()) << statement << " -> " << *out;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << statement;
  }
  // Nothing changed and nothing was logged.
  EXPECT_EQ(shell.default_threads(), 1u);
  EXPECT_EQ(shell.memory_budget_bytes(), 0u);
  EXPECT_EQ(shell.buffer_capacity_bytes(), 64ull << 20);
  EXPECT_EQ(shell.timeout_ms(), 0);
  EXPECT_TRUE(shell.catalog()->state().knobs.empty());

  // The largest representable values are accepted exactly.
  EXPECT_EQ(MustRun(shell, "THREADS 4294967295"),
            "threads set to 4294967295\n");
  EXPECT_EQ(shell.default_threads(), 4294967295u);
  MustRun(shell, "SET MEMORY 17592186044415");
  EXPECT_EQ(shell.memory_budget_bytes(), 17592186044415ull << 20);
  MustRun(shell, "SET BUFFER 17592186044415");
  EXPECT_EQ(shell.buffer_capacity_bytes(), 17592186044415ull << 20);
  EXPECT_FALSE(shell.Execute("SET TIMEOUT 4611686018428").ok());
  MustRun(shell, "SET TIMEOUT 4611686018427");
  EXPECT_EQ(shell.timeout_ms(), 4611686018427);

  // OPEN ignores such values in a catalog it did not write itself, for
  // every knob, with the bounds SET enforces: a value no statement can
  // set is never restored.
  {
    Result<std::unique_ptr<Catalog>> raw = Catalog::Open(vfs, "raw");
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    ASSERT_TRUE((*raw)->SetKnob("THREADS", 4294967296).ok());
    ASSERT_TRUE((*raw)->SetKnob("TIMEOUT_MS", 4611686018428).ok());
    ASSERT_TRUE((*raw)->SetKnob("MEMORY_MB", 17592186044417).ok());
    ASSERT_TRUE((*raw)->SetKnob("BUFFER_MB", -1).ok());
    ASSERT_TRUE((*raw)->SetKnob("INCREMENTAL", 2).ok());
    ASSERT_TRUE((*raw)->SetKnob("OPTIMIZER_LEARNED", -1).ok());
    ASSERT_TRUE((*raw)->SetKnob("DYN_AGGRESSIVENESS_MILLI", -1).ok());
    ASSERT_TRUE((*raw)->SetKnob("DYN_IMPROVEMENT_MILLI", 5000).ok());
    ASSERT_TRUE((*raw)->SetKnob("DYN_MIN_REMOVED_MILLI", 1001).ok());
  }
  Shell reopened;
  reopened.set_vfs(&vfs);
  MustRun(reopened, "OPEN raw");
  EXPECT_EQ(reopened.default_threads(), 1u);
  EXPECT_EQ(reopened.timeout_ms(), 0);
  EXPECT_EQ(reopened.memory_budget_bytes(), 0u);
  EXPECT_EQ(reopened.buffer_capacity_bytes(), 64ull << 20);
  EXPECT_FALSE(reopened.incremental_on());
  EXPECT_FALSE(reopened.learned_optimizer());
  EXPECT_EQ(reopened.dynamic_knobs(), DynamicKnobs());
  Shell fresh;
  EXPECT_EQ(MustRun(reopened, "SHOW OPTIMIZER STATE"),
            MustRun(fresh, "SHOW OPTIMIZER STATE"));
}

void ExpectSameKnobs(const Shell& a, const Shell& b) {
  EXPECT_EQ(a.default_threads(), b.default_threads());
  EXPECT_EQ(a.timeout_ms(), b.timeout_ms());
  EXPECT_EQ(a.memory_budget_bytes(), b.memory_budget_bytes());
  EXPECT_EQ(a.buffer_capacity_bytes(), b.buffer_capacity_bytes());
  EXPECT_EQ(a.incremental_on(), b.incremental_on());
  EXPECT_EQ(a.learned_optimizer(), b.learned_optimizer());
  EXPECT_EQ(a.dynamic_knobs(), b.dynamic_knobs());
}

// Every session knob at its bounds: the boundary values are accepted, log
// exactly one record under the knob's WAL key, and reopen to what the live
// session holds; the values just outside are rejected and log nothing.
// The keys are pinned: renaming one would orphan every catalog written.
TEST(ShellKnobTest, EveryKnobRoundTripsAtItsBounds) {
  struct KnobCase {
    const char* statement;
    const char* key;
    const char* low;
    std::int64_t low_stored;
    const char* high;
    std::int64_t high_stored;
    const char* below;  // rejected
    const char* above;  // rejected
  };
  const KnobCase kCases[] = {
      {"THREADS", "THREADS", "1", 1, "4294967295", 4294967295, "0",
       "4294967296"},
      {"SET TIMEOUT", "TIMEOUT_MS", "0", 0, "4611686018427", 4611686018427,
       "-1", "4611686018428"},
      {"SET MEMORY", "MEMORY_MB", "0", 0, "17592186044415", 17592186044415,
       "-1", "17592186044416"},
      {"SET BUFFER", "BUFFER_MB", "0", 0, "17592186044415", 17592186044415,
       "-1", "17592186044416"},
      {"SET INCREMENTAL", "INCREMENTAL", "OFF", 0, "ON", 1, "NO", "YES"},
      {"SET OPTIMIZER", "OPTIMIZER_LEARNED", "STATIC", 0, "LEARNED", 1, "OFF",
       "ON"},
      // The largest AGGRESSIVENESS whose thousandths fit an int64 (as a
      // double product, rounded).
      {"SET DYNAMIC AGGRESSIVENESS", "DYN_AGGRESSIVENESS_MILLI", "0", 0,
       "9223372036854774", 9223372036854773760, "-0.001", "1e16"},
      {"SET DYNAMIC IMPROVEMENT", "DYN_IMPROVEMENT_MILLI", "0", 0, "1", 1000,
       "-0.001", "1.001"},
      {"SET DYNAMIC MINREMOVED", "DYN_MIN_REMOVED_MILLI", "0", 0, "1", 1000,
       "-0.001", "1.001"},
  };
  MemVfs vfs;
  int dirs = 0;
  for (const KnobCase& c : kCases) {
    for (const auto& [value, stored] :
         {std::pair(c.low, c.low_stored), std::pair(c.high, c.high_stored)}) {
      const std::string statement = std::string(c.statement) + " " + value;
      SCOPED_TRACE(statement);
      const std::string dir = "knobs" + std::to_string(dirs++);
      Shell live;
      live.set_vfs(&vfs);
      MustRun(live, "OPEN " + dir);
      std::string reply = MustRun(live, statement);
      ASSERT_FALSE(reply.empty());
      EXPECT_EQ(reply.back(), '\n');
      const std::map<std::string, std::int64_t> logged = {{c.key, stored}};
      EXPECT_EQ(live.catalog()->state().knobs, logged);
      for (const char* bad : {c.below, c.above}) {
        Result<std::string> out =
            live.Execute(std::string(c.statement) + " " + bad);
        ASSERT_FALSE(out.ok()) << bad;
        EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << bad;
      }
      EXPECT_EQ(live.catalog()->state().knobs, logged);
      Shell reopened;
      reopened.set_vfs(&vfs);
      MustRun(reopened, "OPEN " + dir);
      ExpectSameKnobs(live, reopened);
      EXPECT_EQ(MustRun(reopened, "SHOW OPTIMIZER STATE"),
                MustRun(live, "SHOW OPTIMIZER STATE"));
    }
  }
}

// DYNAMIC values are kept to thousandths: the live session runs with the
// rounded value it persists, so a reopen cannot differ from it.
TEST(ShellKnobTest, SubMilliDynamicValuesRunAsTheyReopen) {
  MemVfs vfs;
  Shell live;
  live.set_vfs(&vfs);
  MustRun(live, "OPEN cat");
  MustRun(live, "SET DYNAMIC IMPROVEMENT 0.0004");
  MustRun(live, "SET DYNAMIC MINREMOVED 0.2506");
  MustRun(live, "SET DYNAMIC AGGRESSIVENESS 2.0004");
  EXPECT_EQ(live.dynamic_knobs().improvement_factor, 0.0);
  EXPECT_EQ(live.dynamic_knobs().min_removed_fraction, 0.251);
  EXPECT_EQ(live.dynamic_knobs().aggressiveness, 2.0);
  Shell reopened;
  reopened.set_vfs(&vfs);
  MustRun(reopened, "OPEN cat");
  EXPECT_EQ(reopened.dynamic_knobs(), live.dynamic_knobs());
}

// RUN's and EXPLAIN ANALYZE's THREADS option accepts what the THREADS
// statement accepts, and nothing else.
TEST(ShellKnobTest, RunThreadsOptionSharesTheThreadsBounds) {
  Shell shell;
  MustRun(shell, "GEN BASKETS b n_baskets=40 n_items=8 seed=3");
  MustRun(shell,
          "FLOCK f QUERY answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 "
          "FILTER COUNT >= 3");
  for (const char* n : {"1", "4294967295"}) {
    MustRun(shell, std::string("THREADS ") + n);
    MustRun(shell, std::string("RUN f LIMIT 1 THREADS ") + n);
    MustRun(shell, std::string("EXPLAIN ANALYZE f LIMIT 1 THREADS ") + n);
  }
  for (const char* n : {"0", "-1", "4294967296"}) {
    EXPECT_FALSE(shell.Execute(std::string("THREADS ") + n).ok()) << n;
    EXPECT_FALSE(shell.Execute(std::string("RUN f THREADS ") + n).ok()) << n;
    EXPECT_FALSE(
        shell.Execute(std::string("EXPLAIN ANALYZE f THREADS ") + n).ok())
        << n;
  }
}

TEST(ShellGovernorTest, MaximalIsGoverned) {
  Shell shell;
  MustRun(shell, "GEN BASKETS mb n_baskets=2000 n_items=100 avg_size=8 seed=9");
  MustRun(shell, "SET TIMEOUT 1");
  Result<std::string> out = shell.Execute("MAXIMAL mb SUPPORT 5");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  MustRun(shell, "SET TIMEOUT 0");
}

// ---------------------------------------------------- durable catalog

TEST(ShellCatalogTest, OpenPersistsAcrossSessions) {
  MemVfs vfs;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    std::string out = MustRun(shell, "OPEN cat");
    EXPECT_NE(out.find("opened cat"), std::string::npos);
    MustRun(shell, "GEN BASKETS b n_baskets=40 n_items=8 seed=5");
    MustRun(shell, "DEFINE big(B) :- b(B, I)");
    MustRun(shell,
            "FLOCK f QUERY answer(B) :- b(B,$1) FILTER COUNT >= 2");
    MustRun(shell, "THREADS 2");
    ASSERT_NE(shell.catalog(), nullptr);
  }
  Shell shell;
  shell.set_vfs(&vfs);
  std::string out = MustRun(shell, "OPEN cat");
  EXPECT_NE(out.find("opened cat: 1 relations, 1 rules, 1 flocks"),
            std::string::npos)
      << out;
  EXPECT_NE(MustRun(shell, "SHOW RELATIONS").find("b("), std::string::npos);
  EXPECT_NE(MustRun(shell, "SHOW FLOCKS").find("f"), std::string::npos);
  // The recovered flock and rule are live, not just listed.
  EXPECT_NE(MustRun(shell, "RUN f").find("rows"), std::string::npos);
}

TEST(ShellCatalogTest, CheckpointResetsWalAndSurvivesReopen) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  MustRun(shell, "GEN BASKETS b n_baskets=30 n_items=8 seed=5");
  std::string out = MustRun(shell, "CHECKPOINT");
  EXPECT_NE(out.find("bytes snapshotted"), std::string::npos);
  Result<std::string> wal = vfs.ReadFile("cat/catalog.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal->empty());
  Shell second;
  second.set_vfs(&vfs);
  std::string reopened = MustRun(second, "OPEN cat");
  EXPECT_NE(reopened.find("opened cat: 1 relations"), std::string::npos);
}

TEST(ShellCatalogTest, TornWalTailIsReportedOnOpen) {
  MemVfs vfs;
  {
    Shell shell;
    shell.set_vfs(&vfs);
    MustRun(shell, "OPEN cat");
    MustRun(shell, "GEN BASKETS b n_baskets=30 n_items=8 seed=5");
    MustRun(shell, "DEFINE big(B) :- b(B, I)");
  }
  // Tear the last commit mid-frame, as a crash during the append would.
  Result<std::string> wal = vfs.ReadFile("cat/catalog.wal");
  ASSERT_TRUE(wal.ok());
  {
    Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc("cat/catalog.wal");
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(wal->substr(0, wal->size() - 4)).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  Shell shell;
  shell.set_vfs(&vfs);
  std::string out = MustRun(shell, "OPEN cat");
  EXPECT_NE(out.find("opened cat: 1 relations, 0 rules"), std::string::npos)
      << out;
  EXPECT_NE(out.find("bytes truncated"), std::string::npos);
}

TEST(ShellCatalogTest, CheckpointWithoutOpenCatalogFails) {
  Shell shell;
  Result<std::string> out = shell.Execute("CHECKPOINT");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShellCatalogTest, OpenFailureLeavesSessionUntouched) {
  MemVfs vfs;
  // Plant a corrupt snapshot.
  ASSERT_TRUE(vfs.CreateDirs("cat").ok());
  ASSERT_TRUE(AtomicWriteFile(vfs, "cat/catalog.snap", "not a snapshot").ok());
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "GEN BASKETS keep n_baskets=10 n_items=5 seed=1");
  Result<std::string> out = shell.Execute("OPEN cat");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruptWal);
  // The in-memory session (and its relations) survives the failed OPEN.
  EXPECT_EQ(shell.catalog(), nullptr);
  EXPECT_NE(MustRun(shell, "SHOW RELATIONS").find("keep"),
            std::string::npos);
}

TEST(ShellCatalogTest, ExplainAnalyzeShowsStorageSubtree) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  MustRun(shell, "GEN BASKETS b n_baskets=40 n_items=8 seed=5");
  MustRun(shell,
          "FLOCK f QUERY answer(B) :- b(B,$1) FILTER COUNT >= 2");
  std::string out = MustRun(shell, "EXPLAIN ANALYZE f");
  EXPECT_NE(out.find("storage:"), std::string::npos) << out;
  EXPECT_NE(out.find("wal"), std::string::npos);
  EXPECT_NE(out.find("fsyncs="), std::string::npos);
}

// ------------------------------------- statistics per relation version

// How many relations the statement's statistics refresh restatted: the
// "stats" node under the metrics root.
std::size_t Restatted(const std::string& explain) {
  std::size_t at = explain.find("\n  stats ");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no stats node in:\n" << explain;
    return 0;
  }
  return std::stoul(explain.substr(explain.find(" out=", at) + 5));
}

// The scan and join lines of a metrics tree (operator and detail, no
// counters): the join order the plan ran.
std::vector<std::string> JoinLines(const std::string& tree) {
  std::vector<std::string> lines;
  std::istringstream in(tree);
  for (std::string line; std::getline(in, line);) {
    line.erase(0, line.find_first_not_of(' '));
    if (line.rfind("scan ", 0) != 0 && line.rfind("join ", 0) != 0) continue;
    line.erase(line.find(" in="));
    line.erase(line.find_last_not_of(' ') + 1);
    lines.push_back(line);
  }
  return lines;
}

Relation Numbered(const std::string& name, const std::string& column,
                  int first, int last, int distinct) {
  Relation rel(name, Schema({"X", column}));
  for (int i = first; i < last; ++i) {
    rel.AddRow({Value(i), Value(column + std::to_string(i % distinct))});
  }
  return rel;
}

TEST(ShellStatsTest, AppendRestatsOnlyTheAppendedRelation) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "GEN BASKETS baskets n_baskets=60 n_items=10 seed=3");
  MustRun(shell, "GEN BASKETS archive n_baskets=60 n_items=10 seed=4");
  MustRun(shell,
          "FLOCK f QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= 3");
  std::string first = MustRun(shell, "EXPLAIN ANALYZE f PLAN");
  EXPECT_EQ(Restatted(first), 2u);
  EXPECT_NE(first.find("\n  search "), std::string::npos) << first;
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 0u);
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f DIRECT")), 0u);

  Relation delta("archive", Schema({"BID", "Item"}));
  delta.AddRow({Value(1000), Value("item_new")});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());
  MustRun(shell, "LOAD archive APPEND FROM delta.tsv");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 1u);
}

TEST(ShellStatsTest, ViewsRematerializeOnlyForRelationsRulesRead) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  MustRun(shell, "GEN BASKETS baskets n_baskets=60 n_items=10 seed=3");
  MustRun(shell, "GEN BASKETS archive n_baskets=60 n_items=10 seed=4");
  MustRun(shell, "DEFINE seen(B) :- baskets(B, I)");
  MustRun(shell, "FLOCK f QUERY answer(B) :- seen(B) AND baskets(B,$1) "
                 "FILTER COUNT >= 3");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 3u);
  Relation delta("archive", Schema({"BID", "Item"}));
  delta.AddRow({Value(1000), Value("item_new")});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());
  // No rule reads archive: the view is neither rematerialized nor
  // restatted.
  MustRun(shell, "LOAD archive APPEND FROM delta.tsv");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 1u);
  MustRun(shell, "GEN BASKETS other n_baskets=10 n_items=5 seed=5");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 1u);
  // seen reads baskets: an append there restats both.
  MustRun(shell, "LOAD baskets APPEND FROM delta.tsv");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 2u);
  // A base relation named like a view still surfaces the clash.
  MustRun(shell, "GEN BASKETS seen n_baskets=10 n_items=5 seed=6");
  EXPECT_EQ(shell.Execute("RUN f PLAN").status().code(),
            StatusCode::kAlreadyExists);
}

TEST(ShellStatsTest, ViewsSurviveAnAdoptingReopen) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  // Over the default paged threshold, so CHECKPOINT gives `a` a sidecar
  // and a re-OPEN adopts the session's handle.
  MustRun(shell,
          "GEN BASKETS a n_baskets=3000 n_items=40 avg_size=5 theta=0.8 "
          "locality=0.5 topics=4 seed=7");
  MustRun(shell, "DEFINE seen(B) :- a(B, I)");
  MustRun(shell, "FLOCK f QUERY answer(B) :- seen(B) AND a(B,$1) "
                 "FILTER COUNT >= 3");
  MustRun(shell, "CHECKPOINT");
  MustRun(shell, "EXPLAIN ANALYZE f PLAN");
  // Same rules, same handle: the view and its statistics are kept.
  std::string opened = MustRun(shell, "OPEN cat");
  EXPECT_NE(opened.find("(1 adopted)"), std::string::npos) << opened;
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 0u);
  // An append to `a` still rematerializes the view across a re-OPEN.
  Relation delta("a", Schema({"BID", "Item"}));
  delta.AddRow({Value(1000000), Value("item_new")});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());
  MustRun(shell, "LOAD a APPEND FROM delta.tsv");
  opened = MustRun(shell, "OPEN cat");
  EXPECT_NE(opened.find("(1 adopted)"), std::string::npos) << opened;
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 2u);
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 0u);
}

TEST(ShellStatsTest, DefineAndOpenRestat) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  MustRun(shell, "OPEN cat");
  MustRun(shell, "GEN BASKETS b n_baskets=40 n_items=8 seed=5");
  MustRun(shell, "FLOCK f QUERY answer(B) :- b(B,$1) FILTER COUNT >= 2");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 1u);
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 0u);
  // A new view is statted when it is materialized.
  MustRun(shell, "DEFINE seen(B) :- b(B, I)");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 1u);
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 0u);
  // OPEN replaces every relation handle: the relation and the view.
  MustRun(shell, "OPEN cat");
  EXPECT_EQ(Restatted(MustRun(shell, "EXPLAIN ANALYZE f PLAN")), 2u);
}

TEST(ShellStatsTest, SkewedAppendReordersPlanJoinsAsAFreshComputeWould) {
  MemVfs vfs;
  Shell shell;
  shell.set_vfs(&vfs);
  Database db;
  db.PutRelation(Numbered("small", "P", 0, 10, 3));
  db.PutRelation(Numbered("big", "Q", 0, 2000, 7));
  shell.SeedDatabase(db);
  const char* kQuery = "answer(X) :- small(X,$1) AND big(X,$2)";
  MustRun(shell, std::string("FLOCK f QUERY ") + kQuery +
                     " FILTER COUNT >= 2");
  Result<QueryFlock> flock =
      MakeFlock(kQuery, FilterCondition::MinSupport(2));
  ASSERT_TRUE(flock.ok());
  // The scans and joins of the plan that statistics computed afresh over
  // the shell's database choose and order.
  auto fresh = [&] {
    DatabaseStats stats = DatabaseStats::Compute(shell.database());
    Result<QueryPlan> plan =
        SearchPlanParameterSets(*flock, CostModel(stats));
    EXPECT_TRUE(plan.ok());
    OpMetrics root;
    EXPECT_TRUE(ExecutePlanOptimized(*plan, *flock, shell.database(), stats,
                                     {.metrics = &root})
                    .ok());
    return JoinLines(root.ToString());
  };
  std::vector<std::string> before =
      JoinLines(MustRun(shell, "EXPLAIN ANALYZE f PLAN"));
  EXPECT_EQ(before, fresh());

  // Grow `small` 10,000x with skewed P values; stale statistics would
  // keep joining it first.
  ASSERT_TRUE(
      StoreTsv(Numbered("small", "P", 10, 100000, 5000), "d.tsv", &vfs).ok());
  MustRun(shell, "LOAD small APPEND FROM d.tsv");
  std::string out = MustRun(shell, "EXPLAIN ANALYZE f PLAN");
  EXPECT_EQ(Restatted(out), 1u);
  std::vector<std::string> after = JoinLines(out);
  EXPECT_EQ(after, fresh());
  EXPECT_NE(after, before);
}

TEST(ShellStatsTest, MaximalRunsAtSessionThreadsWithoutViews) {
  Shell shell;
  MustRun(shell,
          "GEN BASKETS baskets n_baskets=400 n_items=30 avg_size=6 "
          "theta=0.7 locality=0.6 topics=4 seed=17");
  const std::string serial = MustRun(shell, "MAXIMAL baskets SUPPORT 8");
  MustRun(shell, "THREADS 4");
  EXPECT_EQ(MustRun(shell, "MAXIMAL baskets SUPPORT 8"), serial);
  // A view that cannot be materialized fails RUN, not MAXIMAL.
  MustRun(shell, "DEFINE broken(B) :- nowhere(B, I)");
  MustRun(shell, "FLOCK f QUERY answer(B) :- baskets(B,$1) FILTER COUNT >= 2");
  EXPECT_FALSE(shell.Execute("RUN f PLAN").ok());
  EXPECT_EQ(MustRun(shell, "MAXIMAL baskets SUPPORT 8"), serial);
  EXPECT_EQ(shell.Execute("MAXIMAL nowhere SUPPORT 5").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace qf
