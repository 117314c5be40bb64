// How an evaluation runs, as opposed to what it computes. Every evaluator
// (CQ, flock, plan, dynamic, incremental, naive, a-priori, maximal) takes
// its options — what to compute — plus one ExecEnv: the worker count, the
// observability sinks, and the governor. A nested evaluation passes a copy
// re-pointed at the child metrics node it allocated (ExecEnv::At), so the
// four knobs travel together instead of being copied field by field.
#ifndef QF_COMMON_EXEC_ENV_H_
#define QF_COMMON_EXEC_ENV_H_

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"

namespace qf {

struct ExecEnv {
  // Workers (1 = serial). Results — rows and row order — are identical
  // for every value; see DESIGN.md, "Threading model".
  unsigned threads = 1;
  // Observability (common/metrics.h): when `metrics` is non-null the
  // evaluation appends its operator tree under it. `trace` receives span
  // events for those nodes (ScopedOp ignores it without a node) and must
  // be thread-safe. Null (the default) is allocation-free.
  OpMetrics* metrics = nullptr;
  TraceSink* trace = nullptr;
  // Resource governance (common/resource.h): deadline, cancellation and
  // memory budget, polled by every operator. A latched failure surfaces
  // as the context's typed Status. Null (the default) is cost-free.
  QueryContext* ctx = nullptr;

  // This env with its operator tree rooted at `node` instead.
  ExecEnv At(OpMetrics* node) const {
    ExecEnv env = *this;
    env.metrics = node;
    return env;
  }
  // The governor's latched status; OK when ungoverned.
  Status Check() const { return ctx != nullptr ? ctx->Check() : Status::Ok(); }
};

}  // namespace qf

#endif  // QF_COMMON_EXEC_ENV_H_
