// served_append: an in-process Server (two executors) with four qf::Client
// connections on four threads, each a closed loop. Every session owns a
// durable catalog; it appends a delta batch, runs its pairs flock (served
// incrementally), checkpoints every few appends, and then restarts: a new
// connection, a new session, OPEN of the same catalog. Network, admission,
// shell, WAL-before-ack and incremental evaluation do the work.
#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>
#include <unordered_map>

#include "driver/common.h"
#include "network/server.h"

namespace perfbench {
namespace {

struct ServedSizes {
  int baskets, items;
  int support;
  int delta_rows;
  int appends_per_checkpoint;
};

constexpr ServedSizes kFull{2000, 400, 25, 20, 10};
constexpr ServedSizes kTiny{200, 60, 4, 10, 3};
constexpr int kClients = 4;
constexpr std::uint64_t kTraceSlotNs = 2'000'000'000;

// The benchmark's own answer for the pairs flock: pair supports counted
// directly from the generated baskets, updated as batches are appended.
class PairOracle {
 public:
  explicit PairOracle(int support) : support_(support) {}

  void AddBasket(const std::vector<int>& items) {  // sorted, distinct
    for (std::size_t a = 0; a < items.size(); ++a) {
      for (std::size_t b = a + 1; b < items.size(); ++b) {
        std::uint64_t key = (static_cast<std::uint64_t>(items[a]) << 32) |
                            static_cast<std::uint32_t>(items[b]);
        if (++counts_[key] == support_) frequent_.insert({items[a], items[b]});
      }
    }
  }

  std::vector<std::string> Rows() const {
    std::vector<std::string> rows;
    rows.reserve(frequent_.size());
    for (const auto& [a, b] : frequent_) {
      std::string row = "(";
      row.append(ItemName(a)).append(", ").append(ItemName(b)).append(")");
      rows.push_back(std::move(row));
    }
    return rows;
  }

 private:
  int support_;
  std::unordered_map<std::uint64_t, int> counts_;
  std::set<std::pair<int, int>> frequent_;
};

// Generated baskets for one client: the base relation and its delta
// batches, as TSV, feeding the oracle as they are made.
class BasketSource {
 public:
  BasketSource(const ServedSizes& z, std::uint64_t seed)
      : z_(z), seed_(seed), zipf_(static_cast<std::size_t>(z.items), 0.9),
        oracle_(z.support) {}

  std::string Base() {
    Rng rng(Mix(seed_, 0));
    std::string tsv = "BID\tItem\n";
    for (int b = 0; b < z_.baskets; ++b) {
      Emit(b, Basket(rng, 5 + static_cast<int>(rng.Below(7))), tsv);
    }
    return tsv;
  }

  // Exactly z.delta_rows new rows in new baskets.
  std::string Delta(int k) {
    Rng rng(Mix(seed_, 1 + static_cast<std::uint64_t>(k)));
    std::string tsv = "BID\tItem\n";
    int rows = 0;
    for (int j = 0; rows < z_.delta_rows; ++j) {
      int size = std::min(5 + static_cast<int>(rng.Below(7)),
                          z_.delta_rows - rows);
      Emit(1'000'000 + k * 100 + j, Basket(rng, size), tsv);
      rows += size;
    }
    return tsv;
  }

  const PairOracle& oracle() const { return oracle_; }

 private:
  std::vector<int> Basket(Rng& rng, int size) {
    std::set<int> items;
    while (static_cast<int>(items.size()) < size) {
      items.insert(static_cast<int>(zipf_.Sample(rng)));
    }
    return {items.begin(), items.end()};
  }

  void Emit(int bid, const std::vector<int>& items, std::string& tsv) {
    for (int item : items) {
      tsv += std::to_string(bid) + "\t" + ItemName(item) + "\n";
    }
    oracle_.AddBasket(items);
  }

  ServedSizes z_;
  std::uint64_t seed_;
  Zipf zipf_;
  PairOracle oracle_;
};

struct ClientState {
  int index = 0;
  std::string catalog;
  std::unique_ptr<BasketSource> source;
  std::unique_ptr<RemoteSession> session;
  int next_delta = 0;
  std::uint64_t reconnects = 0;
};

class ServedAppend {
 public:
  ServedAppend(const Options& opt, RunRecord& rec)
      : opt_(opt), rec_(rec), z_(opt.tiny ? kTiny : kFull),
        appended_(std::string("+")
                      .append(std::to_string(z_.delta_rows))
                      .append(" rows")) {}

  ~ServedAppend() { Teardown(); }

  bool Setup() {
    Teardown();
    std::uint64_t t0 = NowNs();
    fs_ = std::make_unique<MemoryFs>();
    clients_.clear();
    double gen_s = 0;
    for (int i = 0; i < kClients; ++i) {
      std::uint64_t g0 = NowNs();
      ClientState c;
      c.index = i;
      c.catalog = "sa" + std::to_string(i);
      c.source = std::make_unique<BasketSource>(z_, Mix(opt_.seed, 77 + i));
      fs_->Put("data/base" + std::to_string(i) + ".tsv", c.source->Base());
      gen_s += (NowNs() - g0) / 1e9;
      clients_.push_back(std::move(c));
    }
    qf::ServerOptions options;
    options.executors = 2;
    options.session_vfs = fs_.get();
    if (opt_.trace) {
      sink_ = std::make_unique<qf::MemoryTraceSink>();
      options.trace = sink_.get();
    }
    qf::Result<std::unique_ptr<qf::Server>> server =
        qf::Server::Start(std::move(options));
    if (!server.ok()) {
      rec_.Fail("setup", "server start: " + server.status().ToString());
      return false;
    }
    server_ = std::move(*server);
    for (ClientState& c : clients_) {
      if (!Connect(c)) return false;
      const std::string stmts[] = {
          "OPEN " + c.catalog,
          "LOAD baskets FROM data/base" + std::to_string(c.index) + ".tsv",
          "FLOCK pairs QUERY answer(B) :- baskets(B,$1) AND baskets(B,$2) "
          "AND $1 < $2 FILTER COUNT >= " + std::to_string(z_.support),
          "SET INCREMENTAL ON",
          "CHECKPOINT",
      };
      for (const std::string& stmt : stmts) {
        if (!Must(*c.session, rec_, stmt)) return false;
      }
      // Warm-up and first check: the build RUN.
      std::string out;
      c.session->Helper("RUN pairs LIMIT 1000000", &out);
      if (AnswerRows(out) != c.source->oracle().Rows() ||
          c.source->oracle().Rows().empty()) {
        rec_.Fail("setup", "build RUN differs from the oracle");
      }
    }
    rec_.setup_s.push_back((NowNs() - t0) / 1e9);
    rec_.gen_s.push_back(gen_s);
    return true;
  }

  void Loop(Recorder& recorder) {
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(opt_.seconds * 1e9);
    std::vector<std::thread> threads;
    for (ClientState& c : clients_) {
      threads.emplace_back(
          [&, start, deadline] { ClientLoop(c, start, deadline, recorder); });
    }
    for (std::thread& t : threads) t.join();
    rec_.window_s = (NowNs() - start) / 1e9;
  }

  // Untimed end-of-run checks: a full non-incremental RUN, then a reopen in
  // a fresh session, must both equal the oracle.
  void AfterLoop() {
    for (ClientState& c : clients_) {
      std::vector<std::string> expect = c.source->oracle().Rows();
      std::string out;
      if (!c.session->Helper("SET INCREMENTAL OFF") ||
          !c.session->Helper("RUN pairs DIRECT LIMIT 1000000", &out) ||
          AnswerRows(out) != expect) {
        rec_.Fail("final run", c.catalog + ": full RUN differs from oracle");
      }
      if (!Connect(c) || !c.session->Helper("OPEN " + c.catalog) ||
          !c.session->Helper("RUN pairs DIRECT LIMIT 1000000", &out) ||
          AnswerRows(out) != expect) {
        rec_.Fail("reopen", c.catalog + ": reopened RUN differs from oracle");
      }
      c.reconnects += c.session->client().reconnects();
      rec_.values["reconnects"] += static_cast<double>(c.reconnects);
      if (c.reconnects != 0) {
        rec_.Fail("reconnects", c.catalog + " reconnected " +
                                    std::to_string(c.reconnects) + " times");
      }
    }
    qf::ServerStats stats = server_->stats();
    rec_.values["server_shed"] = static_cast<double>(
        stats.shed_queue_full + stats.shed_quota + stats.shed_draining);
    rec_.values["server_received"] =
        static_cast<double>(stats.statements_received);
    Teardown();
  }

 private:
  bool Connect(ClientState& c) {
    if (c.session != nullptr) {
      c.reconnects += c.session->client().reconnects();
      c.session->client().Close();
    }
    qf::Result<qf::Client> client =
        qf::Client::Connect("127.0.0.1", server_->port());
    if (!client.ok()) {
      rec_.Fail("connect", client.status().ToString());
      c.session.reset();
      return false;
    }
    c.session = std::make_unique<RemoteSession>(std::move(*client));
    c.session->MeterWrites(fs_.get(), c.catalog);
    return true;
  }

  void Teardown() {
    for (ClientState& c : clients_) {
      if (c.session != nullptr) c.session->client().Close();
      c.session.reset();
    }
    if (server_ != nullptr) {
      server_->Shutdown();
      if (sink_ != nullptr) rec_.server_trace = sink_->Lines();
      server_.reset();
    }
    sink_.reset();
  }

  void ClientLoop(ClientState& c, std::uint64_t start, std::uint64_t deadline,
                  Recorder& recorder) {
    bool built = true;  // the set-up RUN built the incremental state
    while (NowNs() < deadline) {
      // Traced and untraced cycles alternate by time slot, so that all four
      // clients trace at once and the untraced cycles compete only with
      // untraced ones: the overhead comparison sees tracing's full load.
      const bool traced =
          opt_.trace && (NowNs() - start) / kTraceSlotNs % 2 == 1;
      if (traced) c.session->StartTrace();
      for (int a = 0; a < z_.appends_per_checkpoint; ++a) {
        if (NowNs() >= deadline) return;
        std::string delta = "data/delta" + std::to_string(c.index) + "_" +
                            std::to_string(c.next_delta) + ".tsv";
        std::string tsv = c.source->Delta(c.next_delta++);
        StmtRecord append = NewRecord("append", "write", traced, c.index);
        append.user_bytes = tsv.size();
        fs_->Put(delta, std::move(tsv));
        RunExpecting(*c.session, recorder, std::move(append),
                     "LOAD baskets APPEND FROM " + delta, appended_);

        StmtRecord r = NewRecord(built ? "run delta" : "run build", "query",
                                 traced, c.index);
        std::string out = c.session->Exec(
            traced ? "EXPLAIN ANALYZE pairs LIMIT 1000000"
                   : "RUN pairs LIMIT 1000000",
            r);
        CheckRows(out, c.source->oracle().Rows(), r);
        std::string tag = ModeTag(out);
        std::string want = built ? "INCREMENTAL:delta" : "INCREMENTAL:build";
        if (r.ok && r.correct && tag.rfind(want, 0) != 0) {
          r.correct = false;
          r.error = "path: RUN served as " + tag + ", expected " + want;
        }
        built = true;
        Keep(*c.session, recorder, r, out);
      }
      if (traced) {
        StmtRecord r = NewRecord("state", "aux", true, c.index);
        r.output = c.session->Exec("SHOW FLOCK STATE pairs", r);
        recorder.Add(std::move(r));
        for (int p = 0; p < 3; ++p) {
          StmtRecord ping = NewRecord("ping", "aux", true, c.index);
          ping.t0 = NowNs();
          ping.ok = c.session->client().Ping().ok();
          ping.t1 = NowNs();
          recorder.Add(std::move(ping));
        }
      }
      if (NowNs() >= deadline) return;
      RunExpecting(*c.session, recorder,
                   NewRecord("checkpoint", "write", traced, c.index),
                   "CHECKPOINT", "checkpoint:");
      if (NowNs() >= deadline) return;
      // Restart: a new connection and session recover the catalog.
      if (!Connect(c)) return;
      RunExpecting(*c.session, recorder,
                   NewRecord("open", "open", traced, c.index),
                   "OPEN " + c.catalog,
                   opt_.tiny ? "recovery:" : "paged: 1 relations");
      built = false;
    }
  }

  const Options& opt_;
  RunRecord& rec_;
  const ServedSizes z_;
  const std::string appended_;  // what an append must report: "+20 rows"
  std::unique_ptr<MemoryFs> fs_;
  std::unique_ptr<qf::MemoryTraceSink> sink_;
  std::unique_ptr<qf::Server> server_;
  std::vector<ClientState> clients_;
};

}  // namespace

void RunServedAppend(const Options& opt, RunRecord& rec) {
  ServedAppend served(opt, rec);
  for (int rep = 0; rep < kSetups; ++rep) {
    if (!served.Setup()) return;
  }
  Recorder recorder;
  served.Loop(recorder);
  rec.stmts = recorder.Take();
  served.AfterLoop();
}

}  // namespace perfbench
