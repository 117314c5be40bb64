#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <thread>

namespace qf {
namespace {

// JSON string escaping for op/detail fields (quotes, backslashes,
// control characters).
void AppendJsonEscaped(std::string& out, std::string_view text) {
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Stable-ish id for the calling thread, for distinguishing interleaved
// spans in a trace.
std::uint64_t ThreadTag() {
  return static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

void AppendTreeLines(const OpMetrics& node, int depth, std::string& out) {
  std::string label(static_cast<std::size_t>(depth) * 2, ' ');
  label += node.op;
  if (!node.detail.empty()) {
    label += ' ';
    label += node.detail;
  }
  constexpr std::size_t kLabelWidth = 40;
  if (label.size() < kLabelWidth) label.resize(kLabelWidth, ' ');
  out += label;

  char buf[192];
  if (node.rows_in_right > 0) {
    std::snprintf(buf, sizeof(buf), " in=%" PRIu64 "x%" PRIu64, node.rows_in,
                  node.rows_in_right);
  } else {
    std::snprintf(buf, sizeof(buf), " in=%" PRIu64, node.rows_in);
  }
  out += buf;
  std::snprintf(buf, sizeof(buf), " out=%" PRIu64, node.rows_out);
  out += buf;
  if (node.est_rows >= 0) {
    // Skew as actual/estimate; "inf" when the model predicted zero rows
    // but some showed up. An estimate that prints as 0 renders as zero,
    // not as a skew of actual/1e-17.
    if (node.est_rows > 0.5) {
      std::snprintf(buf, sizeof(buf), " est=%.0f (x%.2f)", node.est_rows,
                    static_cast<double>(node.rows_out) / node.est_rows);
    } else {
      std::snprintf(buf, sizeof(buf), " est=0 (%s)",
                    node.rows_out == 0 ? "exact" : "xinf");
    }
    out += buf;
  }
  if (node.tuples_probed > 0) {
    std::snprintf(buf, sizeof(buf), " probed=%" PRIu64, node.tuples_probed);
    out += buf;
  }
  if (node.morsels > 0) {
    std::snprintf(buf, sizeof(buf), " morsels=%" PRIu64, node.morsels);
    out += buf;
  }
  if (node.mem_bytes > 0) {
    std::snprintf(buf, sizeof(buf), " mem=%" PRIu64, node.mem_bytes);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " t=%.3fms",
                static_cast<double>(node.wall_ns) / 1e6);
  out += buf;
  out += '\n';
  for (const auto& child : node.children) {
    AppendTreeLines(*child, depth + 1, out);
  }
}

void AppendJson(const OpMetrics& node, std::string& out) {
  out += "{\"op\":\"";
  AppendJsonEscaped(out, node.op);
  out += "\",\"detail\":\"";
  AppendJsonEscaped(out, node.detail);
  out += '"';
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ",\"rows_in\":%" PRIu64 ",\"rows_in_right\":%" PRIu64
                ",\"rows_out\":%" PRIu64 ",\"tuples_probed\":%" PRIu64
                ",\"morsels\":%" PRIu64 ",\"mem_bytes\":%" PRIu64
                ",\"wall_ns\":%" PRIu64,
                node.rows_in, node.rows_in_right, node.rows_out,
                node.tuples_probed, node.morsels, node.mem_bytes,
                node.wall_ns);
  out += buf;
  if (node.est_rows >= 0) {
    std::snprintf(buf, sizeof(buf), ",\"est_rows\":%.17g", node.est_rows);
    out += buf;
  }
  if (!node.children.empty()) {
    out += ",\"children\":[";
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out += ',';
      AppendJson(*node.children[i], out);
    }
    out += ']';
  }
  out += '}';
}

std::unique_ptr<OpMetrics> DeepCopy(const OpMetrics& node) {
  auto copy = std::make_unique<OpMetrics>(node.op, node.detail);
  copy->rows_in = node.rows_in;
  copy->rows_in_right = node.rows_in_right;
  copy->rows_out = node.rows_out;
  copy->tuples_probed = node.tuples_probed;
  copy->morsels = node.morsels;
  copy->mem_bytes = node.mem_bytes;
  copy->wall_ns = node.wall_ns;
  copy->est_rows = node.est_rows;
  for (const auto& child : node.children) {
    copy->children.push_back(DeepCopy(*child));
  }
  return copy;
}

}  // namespace

std::uint64_t MetricsNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

OpMetrics* OpMetrics::AddChild(std::string op_name, std::string detail_text) {
  children.push_back(
      std::make_unique<OpMetrics>(std::move(op_name), std::move(detail_text)));
  return children.back().get();
}

std::vector<OpMetrics*> OpMetrics::AddChildren(
    std::size_t n, const std::string& op_name,
    const std::string& detail_prefix) {
  std::vector<OpMetrics*> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(AddChild(op_name, detail_prefix + std::to_string(i)));
  }
  return out;
}

void OpMetrics::MergeFrom(const OpMetrics& other) {
  rows_in += other.rows_in;
  rows_in_right += other.rows_in_right;
  rows_out += other.rows_out;
  tuples_probed += other.tuples_probed;
  morsels += other.morsels;
  mem_bytes += other.mem_bytes;
  wall_ns += other.wall_ns;
  if (est_rows < 0) est_rows = other.est_rows;
  std::size_t shared = std::min(children.size(), other.children.size());
  for (std::size_t i = 0; i < shared; ++i) {
    children[i]->MergeFrom(*other.children[i]);
  }
  for (std::size_t i = shared; i < other.children.size(); ++i) {
    children.push_back(DeepCopy(*other.children[i]));
  }
}

std::size_t OpMetrics::NodeCount() const {
  std::size_t n = 1;
  for (const auto& child : children) n += child->NodeCount();
  return n;
}

const OpMetrics* OpMetrics::Find(std::string_view op_name) const {
  if (op == op_name) return this;
  for (const auto& child : children) {
    if (const OpMetrics* found = child->Find(op_name)) return found;
  }
  return nullptr;
}

std::string OpMetrics::ToString() const {
  std::string out;
  AppendTreeLines(*this, 0, out);
  return out;
}

std::string OpMetrics::ToJson() const {
  std::string out;
  AppendJson(*this, out);
  return out;
}

std::string FormatTraceEvent(char phase, std::string_view op,
                             std::string_view detail, std::uint64_t t_ns,
                             std::uint64_t rows_out) {
  std::string out = "{\"ev\":\"";
  out += phase;
  out += "\",\"op\":\"";
  AppendJsonEscaped(out, op);
  out += "\",\"detail\":\"";
  AppendJsonEscaped(out, detail);
  out += '"';
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"t_ns\":%" PRIu64 ",\"tid\":\"%" PRIx64
                                  "\"",
                t_ns, ThreadTag());
  out += buf;
  if (phase == 'E') {
    std::snprintf(buf, sizeof(buf), ",\"rows_out\":%" PRIu64, rows_out);
    out += buf;
  }
  out += '}';
  return out;
}

void MemoryTraceSink::BeginSpan(std::string_view op, std::string_view detail,
                                std::uint64_t t_ns) {
  std::string line = FormatTraceEvent('B', op, detail, t_ns, 0);
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(std::move(line));
}

void MemoryTraceSink::EndSpan(std::string_view op, std::string_view detail,
                              std::uint64_t t_ns, std::uint64_t rows_out) {
  std::string line = FormatTraceEvent('E', op, detail, t_ns, rows_out);
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.push_back(std::move(line));
}

std::vector<std::string> MemoryTraceSink::Lines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

std::size_t MemoryTraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_.size();
}

void MemoryTraceSink::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lines_.clear();
}

JsonLinesTraceSink::JsonLinesTraceSink(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {}

JsonLinesTraceSink::~JsonLinesTraceSink() {
  if (file_ != nullptr) std::fclose(file_);
}

std::size_t JsonLinesTraceSink::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void JsonLinesTraceSink::Write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++events_;
}

void JsonLinesTraceSink::BeginSpan(std::string_view op,
                                   std::string_view detail,
                                   std::uint64_t t_ns) {
  Write(FormatTraceEvent('B', op, detail, t_ns, 0));
}

void JsonLinesTraceSink::EndSpan(std::string_view op, std::string_view detail,
                                 std::uint64_t t_ns, std::uint64_t rows_out) {
  Write(FormatTraceEvent('E', op, detail, t_ns, rows_out));
}

ScopedOp::ScopedOp(OpMetrics* metrics, TraceSink* sink)
    : metrics_(metrics), sink_(metrics == nullptr ? nullptr : sink) {
  if (metrics_ == nullptr) return;
  start_ns_ = MetricsNowNs();
  if (sink_ != nullptr) {
    sink_->BeginSpan(metrics_->op, metrics_->detail, start_ns_);
  }
}

ScopedOp::~ScopedOp() {
  if (metrics_ == nullptr) return;
  std::uint64_t end_ns = MetricsNowNs();
  metrics_->wall_ns += end_ns - start_ns_;
  if (sink_ != nullptr) {
    sink_->EndSpan(metrics_->op, metrics_->detail, end_ns,
                   metrics_->rows_out);
  }
}

}  // namespace qf
