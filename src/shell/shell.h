// The query-flocks processor: a small command interpreter around the
// library, in the spirit of §1's "general-purpose mining system" whose
// mining queries "can be issued quickly to whatever data is appropriate".
//
// Statements (terminated by ';'; '#' comments):
//
//   LOAD <rel> FROM <path.tsv>;
//   LOAD <rel> APPEND FROM <path.tsv>;      # delta batch (epoch bump)
//   SAVE <rel> TO <path.tsv>;
//   GEN BASKETS <rel> [key=value ...];      # synthetic data, keys below
//   DEFINE <rule>;                          # intermediate predicate
//   FLOCK <name> QUERY <rules> FILTER <AGG>[(<HeadVar>)] <op> <number>;
//   EXPLAIN <name>;                         # chosen plan + estimates
//   EXPLAIN ANALYZE <name> [mode ...];      # execute + metrics tree
//   RUN <name> [DIRECT|PLAN|DYNAMIC] [LIMIT <n>] [THREADS <n>];
//   SQL <name>;
//   THREADS <n>;                            # default worker count for RUN
//   SET TIMEOUT <ms>; | SET MEMORY <mb>;    # resource limits (0 = off)
//   SET BUFFER <mb>;                        # page-cache capacity (OPEN)
//   SET INCREMENTAL ON|OFF;                 # cache flock state across RUNs
//   SET OPTIMIZER LEARNED|STATIC;           # bandit plan selection for RUN
//   SET DYNAMIC <knob> <v>;                 # §4.4 knobs (AGGRESSIVENESS |
//                                           #   IMPROVEMENT | MINREMOVED)
//   SHOW OPTIMIZER STATE;                   # mode, knobs, outcome history
//   SHOW FLOCK STATE [<name>];              # inspect incremental state
//   TRACE ON; | TRACE OFF; | TRACE TO <path>;  # span events (JSON lines)
//   MAXIMAL <rel> SUPPORT <n> [MAXSIZE <k>];   # flock-sequence mining
//   SHOW RELATIONS; | SHOW FLOCKS; | SHOW TRACE; | SHOW <rel>;
//   OPEN <dir>;                             # durable catalog (WAL+snapshot)
//   CHECKPOINT;                             # snapshot catalog, reset WAL
//   HELP;
//
// GEN BASKETS keys: n_baskets n_items avg_size theta locality topics seed.
//
// With a catalog open (OPEN <dir>), every mutating statement — LOAD,
// LOADDB, GEN, DEFINE, FLOCK, THREADS and every SET — is written to the
// catalog's WAL and fsynced *before* it is acknowledged, so the session
// state survives crashes; OPEN replays it back (storage/catalog.h has the
// recovery contract). After a commit-path I/O error the catalog is
// read-only and mutating statements return the latched IO_ERROR.
//
// The shell is an ordinary library class (tools/qfshell.cc wraps it in a
// REPL); Execute returns the printable output, so tests drive it
// directly.
#ifndef QF_SHELL_SHELL_H_
#define QF_SHELL_SHELL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "datalog/program.h"
#include "flocks/flock.h"
#include "flocks/incremental_eval.h"
#include "optimizer/bandit.h"
#include "optimizer/cost_model.h"
#include "optimizer/history.h"
#include "relational/database.h"
#include "relational/spill.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"

namespace qf {

class Shell {
 public:
  Shell() = default;

  // Executes one statement (no trailing ';' required) and returns its
  // output text. Errors come back as non-OK statuses; the shell object
  // stays usable.
  Result<std::string> Execute(std::string_view statement);

  // Splits `script` into statements on ';' (quote-aware, via
  // SplitStatements in shell/statement.h) and executes them in order,
  // concatenating output. Stops at the first error.
  Result<std::string> ExecuteScript(std::string_view script);

  // Seeds the session's in-memory database from `base` without copying
  // relation payloads (Database shares relations copy-on-write). The
  // server's session manager uses this to give every client its own
  // catalog view over one shared read-mostly database; later mutations
  // replace only this session's pointers. Call before OPEN — an open
  // catalog supersedes the in-memory database.
  void SeedDatabase(const Database& base);

  // The session's relations: the open catalog's durable state, or the
  // in-memory database when no catalog is open.
  const Database& database() const { return db(); }
  const Program& program() const { return program_; }
  // Non-null while a catalog is open (OPEN <dir>); tests inspect recovery
  // info and storage stats through it.
  const Catalog* catalog() const { return catalog_.get(); }
  // File system used by OPEN/CHECKPOINT (tests point this at a MemVfs or
  // FaultVfs; null means the process-wide PosixVfs). Set before OPEN.
  void set_vfs(Vfs* vfs) { vfs_ = vfs; }
  bool HasFlock(const std::string& name) const {
    return flocks_.contains(name);
  }
  // Default worker count RUN statements use (set by `THREADS <n>;`,
  // overridable per statement with `RUN ... THREADS <n>`). Results are
  // identical for every value; see DESIGN.md, "Threading model".
  unsigned default_threads() const { return default_threads_; }

  // True while a trace sink is installed (TRACE ON or TRACE TO <path>).
  bool tracing() const { return trace_sink_ != nullptr; }

  // True while `SET INCREMENTAL ON` is in effect: RUN serves flocks from
  // cached incremental state when it can (falling back to the ordinary
  // evaluation otherwise — results are identical either way).
  bool incremental_on() const { return incremental_on_; }

  // True while `SET OPTIMIZER LEARNED` is in effect: RUN (without an
  // explicit mode word) lets the contextual bandit pick the execution
  // strategy from the outcome history. Every arm is a legality-checked
  // strategy, so results are bit-identical to static mode.
  bool learned_optimizer() const { return learned_optimizer_; }
  // The learned optimizer's outcome history: the open catalog's durable,
  // WAL-logged store, or the session-local one before OPEN.
  const OutcomeHistory& optimizer_history() const {
    return catalog_ != nullptr ? catalog_->state().bandit : local_history_;
  }
  // The session's §4.4 knobs (`SET DYNAMIC <knob> <v>`), applied to every
  // DYNAMIC run and carried by the bandit's "dyn:session" arm.
  const DynamicKnobs& dynamic_knobs() const { return dynamic_knobs_; }
  // The session's incremental evaluator (tests inspect cached state and
  // decision counters through it).
  const IncrementalEvaluator& incremental() const { return incremental_; }

  // Resource limits applied to every governed statement (RUN, EXPLAIN
  // ANALYZE, MAXIMAL), set by `SET TIMEOUT <ms>;` / `SET MEMORY <mb>;`.
  // 0 means no limit.
  std::int64_t timeout_ms() const { return timeout_ms_; }
  std::uint64_t memory_budget_bytes() const { return memory_bytes_; }

  // Buffer pool capacity for paged catalog relations (`SET BUFFER <mb>;`).
  std::uint64_t buffer_capacity_bytes() const { return buffer_bytes_; }
  // The session's page cache (created at OPEN); null before then. Tests
  // and the server's STATS command read hit/miss/eviction counters here.
  const BufferPool* buffer_pool() const { return buffer_pool_.get(); }
  // The session's spill environment: non-null while a catalog is open
  // (spill files live under <dir>/spill, where OPEN sweeps orphans).
  // Governed statements spill to it instead of aborting when the memory
  // budget nears exhaustion; without a catalog the pre-spill hard-abort
  // behavior is kept.
  const SpillEnv* spill_env() const { return spill_env_.get(); }

  // External cancellation flag (e.g. the REPL's SIGINT flag) watched by
  // every governed statement. The pointee must outlive the shell; the
  // caller clears it between statements.
  void set_cancel_flag(const std::atomic<bool>* flag) { cancel_flag_ = flag; }

 private:
  Result<std::string> Load(std::string_view args);
  Result<std::string> Save(std::string_view args);
  Result<std::string> Open(std::string_view args);
  Result<std::string> Checkpoint();
  Result<std::string> Gen(std::string_view args);
  Result<std::string> Define(std::string_view args);
  Result<std::string> DeclareFlock(std::string_view args);
  Result<std::string> Explain(std::string_view args);
  Result<std::string> ExplainAnalyze(std::string_view args);
  Result<std::string> Run(std::string_view args);
  Result<std::string> Sql(std::string_view args);
  Result<std::string> Show(std::string_view args);
  Result<std::string> Maximal(std::string_view args);
  Result<std::string> Trace(std::string_view args);
  // THREADS <n> and SET <knob> <v>: one row of kKnobs parses, bounds,
  // persists and applies the value.
  Result<std::string> SetKnob(std::string_view statement);

  // The session knob table (shell.cc): one row per knob names its
  // statement, WAL key, stored units and bounds, and how a stored value
  // applies to the session. SET, THREADS, OPEN and RUN's THREADS option
  // all read it.
  struct Knob;
  static const Knob kKnobs[];

  // What the learned optimizer chose for one run (EXPLAIN ANALYZE
  // renders it; RUN shows the arm id in its mode string).
  struct LearnedChoice {
    Strategy strategy;  // the bandit's arm
    std::uint64_t context = 0;
    std::string context_desc;
    bool exploring = false;
    std::string posterior;  // per-arm stats lines at decision time
    // The static model's survivor estimate (support filters only), for
    // the outcome's est-vs-actual skew.
    std::optional<double> est;
  };
  // One RUN / EXPLAIN ANALYZE evaluation. The two statements share it
  // and differ only in what they render.
  struct FlockRun {
    std::string name;
    std::size_t limit = 10;
    unsigned threads = 1;
    // Header label: the mode word, INCREMENTAL:<decision>, or
    // LEARNED:<arm id>.
    std::string mode;
    Relation result;
    double ms = 0;
    std::uint64_t peak_bytes = 0;  // governor peak of the path that ran
    std::string dynamic_trace;     // Fig. 9-style log of dynamic runs
    std::optional<LearnedChoice> learned;
  };

  // Parses "<name> [mode] [LIMIT <n>] [THREADS <n>]" and evaluates the
  // flock: the incremental attempt when SET INCREMENTAL is on, else the
  // named strategy (or, without a mode word under SET OPTIMIZER LEARNED,
  // the bandit's pick, whose outcome is then recorded). Operator metrics
  // go under `metrics` when non-null.
  Result<FlockRun> RunFlock(std::string_view args, OpMetrics* metrics);

  // Runs `flock` with `strategy` under `env` over the session database
  // and views — the single executor behind every mode word and every
  // bandit arm. With env.metrics set, support-style flocks get the
  // model's survivor estimates on the tree (per step for plans).
  // `dynamic_trace`, when non-null, receives the Fig. 9-style decision
  // log of dynamic strategies.
  Result<Relation> Execute(const QueryFlock& flock, const Strategy& strategy,
                           const ExecEnv& env, std::string* dynamic_trace);

  // SET OPTIMIZER LEARNED: enumerates the flock's arms and lets the
  // contextual bandit choose one from the outcome history. `metrics`, when
  // set, receives the statistics refresh's node.
  Result<LearnedChoice> ChooseStrategy(const QueryFlock& flock,
                                       OpMetrics* metrics);
  // Folds one learned-run outcome into the history: the catalog's durable
  // store when open (skipped while latched read-only), the session-local
  // store otherwise.
  Status RecordOutcome(const BanditOutcome& outcome);

  // The session cost model over base_stats_ plus the views' statistics,
  // cached across statements and rebuilt only when a relation's version
  // or the materialized view set changed (optimizer/stats.h), so LOAD ...
  // APPEND restats the appended relation alone. With `parent` set, the
  // refresh runs in a "stats" child reporting how many it restatted.
  Result<const CostModel*> Model(OpMetrics* parent = nullptr);

  // Builds the governor for one statement from the session limits and the
  // installed cancellation flag.
  void ConfigureContext(QueryContext& ctx) const;

  // Materializes program views (cached until the program changes).
  Result<const std::map<std::string, Relation>*> Views();

  const Database& db() const {
    return catalog_ != nullptr ? catalog_->state().db : db_;
  }
  Vfs& vfs() const { return vfs_ != nullptr ? *vfs_ : DefaultVfs(); }
  // Stores relations under the session's limits, through the catalog's
  // WAL (one commit, one fsync, all-or-nothing) when one is open, and
  // marks the views stale when a rule reads one of them. On failure
  // nothing is applied. Each stored relation replaces its predecessor, so
  // its incremental append chain is severed (LOAD ... APPEND goes through
  // Catalog::AppendRows instead).
  Status PersistRelations(std::vector<Relation> rels);
  // Persists a session knob's stored value when a catalog is open.
  Status PersistKnob(const std::string& key, std::int64_t value);

  Database db_;  // session relations when no catalog is open
  Program program_;
  // Per-session incremental evaluation (SET INCREMENTAL ON). The state
  // and append chains are session-local: server sessions sharing one base
  // database each maintain their own, so COW isolation is preserved.
  IncrementalEvaluator incremental_;
  bool incremental_on_ = false;
  std::map<std::string, QueryFlock> flocks_;
  std::map<std::string, Relation> views_;
  bool views_dirty_ = false;
  // Bumped whenever Views() rebuilds, so the cached cost model can tell a
  // stale view snapshot from a fresh one.
  std::uint64_t views_version_ = 0;
  // Statistics of db(), one entry per relation version; MAXIMAL orders by
  // them and Model() builds on them. A refresh that restats anything
  // drops the cached model.
  DatabaseStats base_stats_;
  // Statistics of views_, computed when views_version_ moves.
  std::map<std::string, RelationStats> view_stats_;
  std::optional<CostModel> cached_model_;
  std::uint64_t model_views_version_ = 0;  // views_version_ it was built at
  bool learned_optimizer_ = false;
  DynamicKnobs dynamic_knobs_;
  // Outcome history before a catalog is open (superseded by the catalog's
  // durable store after OPEN; see optimizer_history()).
  OutcomeHistory local_history_;
  unsigned default_threads_ = 1;
  std::int64_t timeout_ms_ = 0;      // 0 = no deadline
  std::uint64_t memory_bytes_ = 0;   // 0 = no budget
  const std::atomic<bool>* cancel_flag_ = nullptr;
  Vfs* vfs_ = nullptr;  // null = DefaultVfs()
  std::uint64_t buffer_bytes_ = 64ull * 1024 * 1024;  // SET BUFFER (default 64 MB)
  // Page cache shared by every paged relation the catalog opens or
  // checkpoints; created on OPEN so it can be handed to Catalog::Open.
  std::unique_ptr<BufferPool> buffer_pool_;
  // Spill grant for governed statements; alive while a catalog is open.
  // unique_ptr because SpillEnv holds atomics (not movable) and governed
  // QueryContexts keep a raw pointer to it for the statement's duration.
  std::unique_ptr<SpillEnv> spill_env_;
  std::unique_ptr<Catalog> catalog_;
  // Installed trace sink (TRACE ON/TO); the typed aliases identify which
  // kind is active (memory_trace_ backs SHOW TRACE).
  std::unique_ptr<TraceSink> trace_sink_;
  MemoryTraceSink* memory_trace_ = nullptr;
  JsonLinesTraceSink* file_trace_ = nullptr;
  std::string trace_path_;
};

}  // namespace qf

#endif  // QF_SHELL_SHELL_H_
