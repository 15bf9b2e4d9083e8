// Benchmark workload binary: one repetition of one workload, measured from
// outside the simulator through the layers' public API.
//
//   perfbench_workload <workload> <seed> <plain|traced|par2> [replay]
//
// Workloads (see README.md for why each exists):
//   ring_scored        1 pod, one 8-FPGA ring, functional scoring on,
//                      closed loop over several models
//   fed_openloop       4 pods x 2 rings, sharded lock-step group,
//                      Poisson open loop at ~70% of saturation
//   sessions_failover  3 pods x 2 rings, unsharded, scatter-gather
//                      sessions across a pod 0 blackout + re-admission
//
// Modes: `plain` is the untraced run the end-to-end metrics come from;
// `traced` turns the observability plane fully on; `par2` is the traced
// run on two worker threads (sharded workloads only). `replay` re-scores
// every delivered document through rank::RankingFunction's stages after
// the timed phase, timing each stage and checking the scores bit for bit.
//
// Output: one JSON object on stdout holding raw per-repetition numbers,
// a digest of every completion (id, outcome, score bits, latency) in
// delivery order, and the list of failed output checks. The process
// exits 1 when any check fails. run.py repeats it and aggregates.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "rank/document_generator.h"
#include "rank/model.h"
#include "rank/software_ranker.h"
#include "service/federation_testbed.h"

using namespace catapult;
using service::FederationTestbed;

namespace {

enum class Mode { kPlain, kTraced, kPar2 };

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    Mode mode = Mode::kPlain;
    bool replay = false;
};

double WallSeconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double CpuSeconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
           static_cast<double>(usage.ru_utime.tv_usec +
                               usage.ru_stime.tv_usec) *
               1e-6;
}

double PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** One request's fate: a document, a query or a gather. */
struct Completion {
    std::uint64_t id = 0;
    /** Fully served: scored, or every document of the gather merged. */
    bool ok = false;
    /** Got a result at all (a partial gather counts, a timeout not). */
    bool answered = false;
    Time latency = 0;
    float score = 0.0f;
};

/** Named numbers plus failed output checks, printed as one JSON line. */
class Report {
  public:
    void Set(const std::string& name, double value) { values_[name] = value; }
    void Fail(const std::string& what) { failures_.push_back(what); }
    bool failed() const { return !failures_.empty(); }

    void Print() const {
        std::printf("{\"values\":{");
        bool first = true;
        for (const auto& [name, value] : values_) {
            std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                        value);
            first = false;
        }
        std::printf("},\"failures\":[");
        for (std::size_t i = 0; i < failures_.size(); ++i) {
            std::printf("%s\"%s\"", i ? "," : "", failures_[i].c_str());
        }
        std::printf("]}\n");
    }

  private:
    std::map<std::string, double> values_;
    std::vector<std::string> failures_;
};

/** FNV-1a over the completion stream: equal digests, equal outputs. */
std::uint64_t Digest(const std::vector<Completion>& completions) {
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    };
    for (const Completion& c : completions) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &c.score, sizeof bits);
        mix(c.id);
        mix((c.ok ? 1 : 0) | (c.answered ? 2 : 0));
        mix(bits);
        mix(static_cast<std::uint64_t>(c.latency));
    }
    return h;
}

// --- Trace decomposition --------------------------------------------

struct TraceEvent {
    std::string name;
    bool instant = false;
    Time start = 0;
    Time end = 0;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    std::uint64_t parent = 0;
    std::int64_t a1 = 0;
};

/** Exact picoseconds from a "<us>.<6 digits>" timestamp. */
Time ParseMicros(const char* p) {
    char* end = nullptr;
    const long long whole = std::strtoll(p, &end, 10);
    long long frac = 0;
    if (*end == '.') frac = std::strtoll(end + 1, nullptr, 10);
    return static_cast<Time>(whole) * 1'000'000 + static_cast<Time>(frac);
}

/** Value following `"key":` inside [from, to), or null. */
const char* FieldAt(const char* from, const char* to, const char* key) {
    const std::string needle = std::string("\"") + key + "\":";
    const char* at = std::search(from, to, needle.begin(), needle.end());
    return at == to ? nullptr : at + needle.size();
}

/**
 * Reads the stitched Chrome trace (ObservabilityPlane::TraceJson): one
 * flat object per event, ending in its "args" object's "}}". Returns
 * false when an event lacks a field this parser relies on.
 */
bool ParseTrace(const std::string& json, std::vector<TraceEvent>* events) {
    const char* p = json.c_str();
    const char* const end = p + json.size();
    const std::string open = "{\"name\":\"";
    while (true) {
        const char* at = std::search(p, end, open.begin(), open.end());
        if (at == end) return true;
        const char* close = std::strstr(at, "}}");
        const char* name = at + open.size();
        const char* name_end = std::strchr(name, '"');
        if (close == nullptr || name_end == nullptr) return false;
        const char* ph = FieldAt(at, close, "ph");
        const char* ts = FieldAt(at, close, "ts");
        const char* pid = FieldAt(at, close, "pid");
        const char* span = FieldAt(at, close, "span");
        const char* parent = FieldAt(at, close, "parent");
        const char* a1 = FieldAt(at, close, "a1");
        if (!ph || !ts || !pid || !span || !parent || !a1) return false;
        TraceEvent e;
        e.name.assign(name, name_end);
        e.instant = ph[1] == 'i';
        e.start = ParseMicros(ts);
        const char* dur = FieldAt(at, close, "dur");
        e.end = e.start + (dur != nullptr ? ParseMicros(dur) : 0);
        e.trace = std::strtoull(pid, nullptr, 10);
        e.span = std::strtoull(span, nullptr, 10);
        e.parent = std::strtoull(parent, nullptr, 10);
        e.a1 = std::strtoll(a1, nullptr, 10);
        events->push_back(std::move(e));
        p = close + 2;
    }
}

/** Length of the union of `intervals` clipped to [lo, hi). */
Time CoveredWithin(std::vector<std::pair<Time, Time>> intervals, Time lo,
                   Time hi) {
    std::sort(intervals.begin(), intervals.end());
    Time covered = 0;
    Time cursor = lo;
    for (auto [a, b] : intervals) {
        a = std::max(a, cursor);
        b = std::min(b, hi);
        if (b > a) {
            covered += b - a;
            cursor = b;
        }
    }
    return covered;
}

const char* StageMetricName(std::int64_t stage) {
    switch (static_cast<rank::PipelineStage>(stage)) {
      case rank::PipelineStage::kFeatureExtraction: return "stage_fe";
      case rank::PipelineStage::kFfe0: return "stage_ffe0";
      case rank::PipelineStage::kFfe1: return "stage_ffe1";
      case rank::PipelineStage::kCompression: return "stage_compress";
      case rank::PipelineStage::kScoring0: return "stage_score0";
      case rank::PipelineStage::kScoring1: return "stage_score1";
      case rank::PipelineStage::kScoring2: return "stage_score2";
      case rank::PipelineStage::kSpare: return "stage_spare";
    }
    return "stage_unknown";
}

/**
 * Simulated-latency decomposition. A span's self time is its duration
 * minus the part of it its child spans cover. Instants get the
 * interval they open on the path:
 *   session       session instant -> its gather span's start
 *   merge         last child query's end -> merge instant
 *   inject        inject instant -> the document span it launched
 *   failover      failover instant -> the query's next inject
 *   dma_response  the document's last stage end -> DMA landing
 */
void DecomposeTrace(const std::vector<TraceEvent>& events, Report& report) {
    std::map<std::uint64_t, const TraceEvent*> spans;
    std::map<std::uint64_t, std::vector<const TraceEvent*>> children;
    std::map<std::uint64_t, std::vector<const TraceEvent*>> instants;
    std::map<std::uint64_t, const TraceEvent*> gather_of_trace;
    for (const TraceEvent& e : events) {
        if (e.instant) {
            instants[e.parent].push_back(&e);
            continue;
        }
        spans[e.span] = &e;
        children[e.parent].push_back(&e);
        if (e.name == "gather") gather_of_trace[e.trace] = &e;
    }
    std::map<std::string, SampleStat> self_us;
    auto add = [&self_us](const std::string& name, Time t) {
        self_us[name].Add(ToMicroseconds(t));
    };
    for (const auto& [id, span] : spans) {
        std::vector<std::pair<Time, Time>> covered;
        Time last_child_end = span->start;
        Time last_stage_end = span->start;
        for (const TraceEvent* child : children[id]) {
            covered.emplace_back(child->start, child->end);
            last_child_end = std::max(last_child_end, child->end);
            if (child->name == "stage") {
                last_stage_end = std::max(last_stage_end, child->end);
            }
        }
        const std::string name = span->name == "stage"
                                     ? StageMetricName(span->a1)
                                     : span->name;
        add(name, span->end - span->start -
                      CoveredWithin(covered, span->start, span->end));
        // Instants hanging off this span, in time order.
        std::vector<const TraceEvent*> marks = instants[id];
        std::stable_sort(marks.begin(), marks.end(),
                         [](const TraceEvent* a, const TraceEvent* b) {
                             return a->start < b->start;
                         });
        for (std::size_t i = 0; i < marks.size(); ++i) {
            const TraceEvent* m = marks[i];
            if (m->name == "merge") {
                add("merge", m->start - std::min(last_child_end, m->start));
            } else if (m->name == "dma_response") {
                add("dma_response",
                    m->start - std::min(last_stage_end, m->start));
            } else if (m->name == "inject") {
                // The first document span starting at or after it.
                Time next = span->end;
                for (const TraceEvent* child : children[id]) {
                    if (child->name == "doc" && child->start >= m->start) {
                        next = std::min(next, child->start);
                    }
                }
                add("inject", next - m->start);
            } else if (m->name == "failover") {
                Time next = span->end;
                for (std::size_t j = i + 1; j < marks.size(); ++j) {
                    if (marks[j]->name == "inject") {
                        next = marks[j]->start;
                        break;
                    }
                }
                add("failover", next - m->start);
            }
        }
    }
    for (const TraceEvent* m : instants[0]) {
        if (m->name != "session") continue;
        const auto it = gather_of_trace.find(m->trace);
        if (it == gather_of_trace.end()) continue;
        add("session", it->second->start - m->start);
    }
    const char* kNames[] = {
        "session",      "gather",       "merge",        "query",
        "inject",       "failover",     "doc",          "stage_fe",
        "stage_ffe0",   "stage_ffe1",   "stage_compress", "stage_score0",
        "stage_score1", "stage_score2", "dma_response"};
    for (const char* name : kNames) {
        const SampleStat& s = self_us[name];
        report.Set(std::string("lat.") + name + "_self_p50_us", s.Median());
        report.Set(std::string("lat.") + name + "_self_p99_us", s.P99());
        report.Set(std::string("lat.") + name + "_count",
                   static_cast<double>(s.count()));
    }
}

// --- The harness shared by the workloads -----------------------------

/** Documents and arrival times derive from the seed alone. */
struct Inputs {
    explicit Inputs(std::uint64_t seed)
        : docs(seed * 0x9E3779B97F4A7C15ull + 1), arrivals(seed + 7) {}
    rank::DocumentGenerator docs;
    Rng arrivals;
};

class Harness {
  public:
    Harness(const Options& options, Report& report)
        : options_(options), report_(report) {}

    /**
     * Build the testbed, deploy it and warm the model caches for the
     * `models` the workload's documents use; timed as setup.
     */
    bool Setup(FederationTestbed::Config config,
               const std::vector<std::uint32_t>& models) {
        if (options_.mode != Mode::kPlain) {
            config.observability.enabled = true;
            config.observability.tracing = true;
            config.observability.trace_capacity = trace_capacity_;
        }
        if (options_.mode == Mode::kPar2) {
            config.sharding.parallel = true;
            config.sharding.max_threads = 2;
        }
        const double t0 = WallSeconds();
        bed_ = std::make_unique<FederationTestbed>(std::move(config));
        const double t1 = WallSeconds();
        const bool deployed = bed_->DeployAndSettle();
        const double t2 = WallSeconds();
        // Every ring builds its pipeline function per model lazily on
        // the first document of that model; build them here so the
        // timed phase starts warm and the cost shows in setup_s.
        for (int k = 0; k < bed_->pod_count(); ++k) {
            service::ServicePool& pool = bed_->pod(k).pool();
            for (int r = 0; r < pool.ring_count(); ++r) {
                for (const std::uint32_t model : models) {
                    pool.ring(r).FunctionFor(model);
                }
            }
        }
        const double t3 = WallSeconds();
        report_.Set("setup.build_s", t1 - t0);
        report_.Set("setup.deploy_s", t2 - t1);
        report_.Set("setup.warm_s", t3 - t2);
        report_.Set("setup_s", t3 - t0);
        if (!deployed) report_.Fail("deployment failed");
        return deployed;
    }

    /** Run the scheduled load to completion; timed as the workload. */
    void Drive() {
        obs::ObservabilityPlane* plane = bed_->observability();
        const std::uint64_t ticks0 =
            plane != nullptr ? plane->hub().snapshots_taken() : 0;
        const std::uint64_t events0 = EventsFired();
        load_start_ = bed_->Now();
        const double wall0 = WallSeconds();
        const double cpu0 = CpuSeconds();
        bed_->Run();
        wall_s_ = WallSeconds() - wall0;
        report_.Set("wall_s", wall_s_);
        report_.Set("cpu_s", CpuSeconds() - cpu0);
        events_ = EventsFired() - events0;
        // Unsharded, the plane's metrics hub snapshots from a daemon
        // event of its own, one per cadence tick; sharded, from the
        // group's barrier hook, which fires no events.
        if (plane != nullptr && !bed_->sharded()) {
            report_.Set("obs.tick_events",
                        static_cast<double>(plane->hub().snapshots_taken() -
                                            ticks0));
        }
    }

    FederationTestbed& bed() { return *bed_; }
    const std::vector<Completion>& completions() const { return completions_; }
    void set_trace_capacity(std::size_t n) { trace_capacity_ = n; }
    double wall_s() const { return wall_s_; }

    /** Record one finished request at the current simulated time. */
    void Complete(const Completion& completion) {
        completions_.push_back(completion);
        last_completion_ = std::max(last_completion_, bed_->Now());
    }

    /**
     * End-to-end simulated metrics: latency over every completed
     * request, goodput = ok requests within `limit` per simulated
     * second of the load phase, ok_frac = ok / attempted.
     */
    void ReportRequests(std::uint64_t attempted, Time limit) {
        SampleStat latency_us;
        latency_us.Reserve(completions_.size());
        std::uint64_t ok = 0;
        std::uint64_t answered = 0;
        std::uint64_t in_limit = 0;
        for (const Completion& c : completions_) {
            latency_us.Add(ToMicroseconds(c.latency));
            if (c.answered) ++answered;
            if (!c.ok) continue;
            ++ok;
            if (c.latency <= limit) ++in_limit;
        }
        const double sim_s = ToSeconds(last_completion_ - load_start_);
        report_.Set("attempted", static_cast<double>(attempted));
        report_.Set("ok", static_cast<double>(ok));
        report_.Set("answered", static_cast<double>(answered));
        report_.Set("sim_samples", static_cast<double>(latency_us.count()));
        report_.Set("sim_p50_us", latency_us.Median());
        report_.Set("sim_p99_us", latency_us.P99());
        report_.Set("sim_goodput_per_s",
                    sim_s > 0 ? static_cast<double>(in_limit) / sim_s : 0.0);
        report_.Set("sim_elapsed_s", sim_s);
        report_.Set("sim_limit_us", ToMicroseconds(limit));
        report_.Set("ok_frac",
                    attempted > 0 ? static_cast<double>(ok) /
                                        static_cast<double>(attempted)
                                  : 0.0);
        report_.Set("digest", static_cast<double>(Digest(completions_) >> 11));
        report_.Set("sim.events", static_cast<double>(events_));
        report_.Set("sim.events_per_req",
                    attempted > 0 ? static_cast<double>(events_) /
                                        static_cast<double>(attempted)
                                  : 0.0);
    }

    /** Every layer's counters, read through their accessors. */
    void ReportLayers(std::uint64_t attempted) {
        FederationTestbed& bed = *bed_;
        const double per_req =
            attempted > 0 ? 1.0 / static_cast<double>(attempted) : 0.0;
        std::uint64_t router = 0, flits = 0, sl3_drops = 0, pcie = 0,
                      dma = 0, fdr = 0, slot_sends = 0, host_timeouts = 0,
                      reboots = 0, faults = 0, model_switches = 0;
        for (int k = 0; k < bed.pod_count(); ++k) {
            mgmt::PodContext& pod = bed.pod(k);
            for (int n = 0; n < pod.fabric().node_count(); ++n) {
                shell::Shell& sh = pod.fabric().shell(n);
                const auto& rc = sh.router().counters();
                router += rc.forwarded + rc.delivered_local;
                for (const shell::Port port :
                     {shell::Port::kNorth, shell::Port::kSouth,
                      shell::Port::kEast, shell::Port::kWest}) {
                    const auto& lc = sh.link(port).counters();
                    flits += lc.flits_sent;
                    sl3_drops += lc.double_bit_drops + lc.crc_drops +
                                 lc.rx_halt_drops + lc.no_peer_drops +
                                 lc.defective_drops +
                                 lc.version_mismatch_drops;
                }
                pcie += sh.dma().host_to_fpga_link().counters().transfers +
                        sh.dma().fpga_to_host_link().counters().transfers;
                dma += sh.dma().counters().host_to_fpga +
                       sh.dma().counters().fpga_to_host;
                fdr += sh.fdr().total_recorded();
                const auto& dc = pod.host(n).driver().counters();
                slot_sends += dc.sent;
                host_timeouts += dc.timeouts;
                const auto& hc = pod.host(n).counters();
                reboots += hc.soft_reboots + hc.hard_reboots;
            }
            faults += pod.health_monitor().failed_machine_list().size();
            for (int r = 0; r < pod.pool().ring_count(); ++r) {
                model_switches += pod.pool()
                                      .ring(r)
                                      .queue_manager()
                                      .counters()
                                      .model_switches;
            }
        }
        auto per_request = [per_req](std::uint64_t n) {
            return static_cast<double>(n) * per_req;
        };
        report_.Set("shell.router_packets", per_request(router));
        report_.Set("shell.sl3_flits", per_request(flits));
        report_.Set("shell.sl3_drops", per_request(sl3_drops));
        report_.Set("shell.pcie_transactions", per_request(pcie));
        report_.Set("shell.dma_transfers", per_request(dma));
        report_.Set("shell.fdr_records", per_request(fdr));
        report_.Set("host.slot_dma_sends", static_cast<double>(slot_sends));
        report_.Set("host.timeouts", static_cast<double>(host_timeouts));
        report_.Set("mgmt.reboots", static_cast<double>(reboots));
        report_.Set("mgmt.faults_classified", static_cast<double>(faults));
        report_.Set("rank.model_switches",
                    static_cast<double>(model_switches));

        const auto& d = bed.dispatcher().counters();
        const auto& s = bed.front_end().scatter().counters();
        report_.Set("service.injected", static_cast<double>(d.accepted));
        report_.Set("service.completed", static_cast<double>(d.completed));
        report_.Set("service.failovers", static_cast<double>(d.failovers));
        report_.Set("service.rejected", static_cast<double>(d.rejected));
        report_.Set("service.partial", static_cast<double>(s.partial));
        report_.Set("service.stragglers", static_cast<double>(s.stragglers));
        report_.Set("service.refused",
                    static_cast<double>(bed.front_end().counters().refused));

        double rounds = 0, items = 0, messages = 0, epoch_us = 0;
        if (const sim::SimulatorGroup* group = bed.group()) {
            const auto& prof = group->profile();
            rounds = static_cast<double>(prof.rounds);
            items = static_cast<double>(prof.round_items);
            messages = static_cast<double>(prof.messages_drained);
            if (prof.rounds > 0) {
                epoch_us = ToMicroseconds(prof.frontier_advance) / rounds;
            }
        }
        report_.Set("sim.group.rounds", rounds);
        report_.Set("sim.group.round_items", items);
        report_.Set("sim.group.messages", messages);
        report_.Set("sim.group.events_per_round",
                    rounds > 0 ? static_cast<double>(events_) / rounds : 0.0);
        report_.Set("sim.group.mean_epoch_us", epoch_us);
    }

    /**
     * Traced modes: export the trace and the metrics, decompose the
     * simulated latency, and check no trace record was evicted.
     */
    void ReportObservability() {
        obs::ObservabilityPlane* plane = bed_->observability();
        if (plane == nullptr) return;
        const double t0 = WallSeconds();
        const std::string trace = plane->TraceJson();
        const bool metrics_exported = !plane->MetricsJson(true).empty();
        report_.Set("obs.export_s", WallSeconds() - t0);
        if (!metrics_exported) report_.Fail("empty metrics export");
        std::uint64_t records = 0, dropped = 0;
        for (int i = 0; i < plane->shard_count(); ++i) {
            records += plane->shard(i)->tracer.total_recorded();
            dropped += plane->shard(i)->tracer.dropped();
        }
        report_.Set("obs.spans", static_cast<double>(records));
        if (dropped > 0) report_.Fail("trace ring evicted records");
        std::vector<TraceEvent> events;
        if (!ParseTrace(trace, &events)) {
            report_.Fail("unreadable trace export");
        }
        DecomposeTrace(events, report_);
    }

  private:
    std::uint64_t EventsFired() {
        if (sim::SimulatorGroup* group = bed_->group()) {
            std::uint64_t sum = 0;
            for (int i = 0; i < group->shard_count(); ++i) {
                sum += group->shard(i).EventsFired();
            }
            return sum;
        }
        return bed_->simulator().EventsFired();
    }

    const Options& options_;
    Report& report_;
    std::unique_ptr<FederationTestbed> bed_;
    std::vector<Completion> completions_;
    std::size_t trace_capacity_ = 1u << 16;
    std::uint64_t events_ = 0;
    double wall_s_ = 0.0;
    Time load_start_ = 0;
    Time last_completion_ = 0;
};

/**
 * Re-score `docs` through the model's stages outside the simulator,
 * timing each stage, and check each delivered score bit for bit.
 */
void ReplayScores(const rank::ModelStore::Config& models,
                  std::uint64_t model_seed,
                  const std::vector<rank::CompressedRequest>& docs,
                  const std::vector<Completion>& completions,
                  double wall_s, Report& report) {
    rank::ModelStore store(models);
    std::map<std::uint32_t, std::unique_ptr<rank::RankingFunction>> fns;
    rank::FeatureStore features;
    rank::FeatureStore compressed;
    double fe = 0, ffe = 0, comp = 0, score = 0;
    std::uint64_t replayed = 0, mismatched = 0;
    for (const Completion& c : completions) {
        if (!c.ok) continue;
        const rank::CompressedRequest& doc = docs[c.id];
        auto& fn = fns[doc.query.model_id];
        if (!fn) {
            fn = std::make_unique<rank::RankingFunction>(
                &store.GetOrGenerate(doc.query.model_id, model_seed));
        }
        const double t0 = WallSeconds();
        fn->ExtractFeatures(doc, features);
        const double t1 = WallSeconds();
        fn->RunFfe0(features);
        fn->RunFfe1(features);
        const double t2 = WallSeconds();
        compressed.Clear();
        fn->Compress(features, compressed);
        const double t3 = WallSeconds();
        const float expected = fn->FinalScore(compressed);
        const double t4 = WallSeconds();
        fe += t1 - t0;
        ffe += t2 - t1;
        comp += t3 - t2;
        score += t4 - t3;
        ++replayed;
        if (std::memcmp(&expected, &c.score, sizeof expected) != 0) {
            ++mismatched;
        }
    }
    const double n = replayed > 0 ? static_cast<double>(replayed) : 1.0;
    report.Set("rank.fe_ns_per_doc", fe * 1e9 / n);
    report.Set("rank.ffe_ns_per_doc", ffe * 1e9 / n);
    report.Set("rank.compress_ns_per_doc", comp * 1e9 / n);
    report.Set("rank.score_ns_per_doc", score * 1e9 / n);
    report.Set("rank.host_share",
               wall_s > 0 ? (fe + ffe + comp + score) / wall_s : 0.0);
    report.Set("rank.replayed", static_cast<double>(replayed));
    if (mismatched > 0) {
        report.Fail(std::to_string(mismatched) +
                    " delivered scores differ from the replay");
    }
}

/** Distinct model ids of `docs`, ascending. */
std::vector<std::uint32_t> ModelsOf(
    const std::vector<rank::CompressedRequest>& docs) {
    std::vector<std::uint32_t> models;
    for (const auto& doc : docs) models.push_back(doc.query.model_id);
    std::sort(models.begin(), models.end());
    models.erase(std::unique(models.begin(), models.end()), models.end());
    return models;
}

/** Fast deploy shared by every workload. */
FederationTestbed::Config BaseConfig(int pods, int rings) {
    FederationTestbed::Config config;
    config.pod_count = pods;
    config.pod.ring_count = rings;
    config.pod.fabric.device.configure_time = Milliseconds(5);
    return config;
}

// --- ring_scored ------------------------------------------------------

constexpr int kRingDocs = 1'200;
constexpr int kRingClients = 8;
constexpr Time kRingLimit = Microseconds(600);

void RunRingScored(const Options& options, Report& report) {
    Harness h(options, report);
    auto config = BaseConfig(1, 1);
    config.pod.service.compute_scores = true;
    h.set_trace_capacity(kRingDocs * 16);
    Inputs inputs(options.seed);
    std::vector<rank::CompressedRequest> docs;
    docs.reserve(kRingDocs);
    for (int i = 0; i < kRingDocs; ++i) docs.push_back(inputs.docs.Next());
    const rank::ModelStore::Config models = config.pod.service.models;
    const std::uint64_t model_seed = config.pod.service.model_seed;
    if (!h.Setup(config, ModelsOf(docs))) return;

    // Closed loop: each client owns one driver thread and keeps one
    // document outstanding; the next document is the next unsent one.
    std::uint64_t next = 0;
    std::uint64_t refused = 0;
    std::function<void(int)> send = [&](int client) {
        if (next >= docs.size()) return;
        const std::uint64_t id = next++;
        const Time sent_at = h.bed().Now();
        const auto status = h.bed().dispatcher().Inject(
            client, docs[id],
            [&, id, client, sent_at](const service::ScoreResult& r) {
                h.Complete({id, r.ok, r.ok, h.bed().Now() - sent_at, r.score});
                send(client);
            });
        if (status != host::SendStatus::kOk) {
            ++refused;
            send(client);
        }
    };
    for (int c = 0; c < kRingClients; ++c) send(c);
    h.Drive();

    h.ReportRequests(docs.size(), kRingLimit);
    h.ReportLayers(docs.size());
    if (refused > 0) report.Fail("ring refused documents");
    if (h.completions().size() + refused != docs.size()) {
        report.Fail("documents unanswered");
    }
    if (options.replay) {
        ReplayScores(models, model_seed, docs, h.completions(), h.wall_s(),
                     report);
    }
    h.ReportObservability();
}

// --- fed_openloop -----------------------------------------------------

constexpr double kFedRateQps = 245'000.0;
constexpr Time kFedDuration = Milliseconds(100);
constexpr Time kFedLimit = Microseconds(500);

void RunFedOpenLoop(const Options& options, Report& report) {
    Harness h(options, report);
    auto config = BaseConfig(4, 2);
    config.sharding.enabled = true;
    Inputs inputs(options.seed);
    // The arrival schedule, drawn up front: Poisson gaps at the rate.
    std::vector<Time> due;
    for (Time at = 0;;) {
        const double gap_s = inputs.arrivals.Exponential(1.0 / kFedRateQps);
        at += static_cast<Time>(gap_s * 1e12);
        if (at >= kFedDuration) break;
        due.push_back(at);
    }
    std::vector<rank::CompressedRequest> docs;
    docs.reserve(due.size());
    for (std::size_t i = 0; i < due.size(); ++i) {
        docs.push_back(inputs.docs.Next());
    }
    // Per query: query span, inject instant, doc span, 7 stage spans and
    // the DMA instant; the coordinator shard holds the first two for all.
    h.set_trace_capacity(due.size() * 12 + 4096);
    if (!h.Setup(config, ModelsOf(docs))) return;

    const int threads = config.pod.driver_threads;
    std::uint64_t accepted = 0, rejected = 0, failed = 0, doubled = 0;
    std::vector<char> answered(due.size(), 0);
    const Time origin = h.bed().Now();
    // One pending arrival at a time: each arrival schedules the next.
    std::function<void(std::size_t)> arrive = [&](std::size_t i) {
        const auto status = h.bed().dispatcher().Inject(
            static_cast<int>(i % static_cast<std::size_t>(threads)), docs[i],
            [&, i](const service::ScoreResult& r) {
                if (answered[i]++) {
                    ++doubled;
                    return;
                }
                if (!r.ok) ++failed;
                h.Complete({i, r.ok, r.ok, r.latency, r.score});
            });
        if (status == host::SendStatus::kOk) {
            ++accepted;
        } else {
            ++rejected;
        }
        if (i + 1 < due.size()) {
            h.bed().simulator().ScheduleAt(origin + due[i + 1],
                                           [&, i] { arrive(i + 1); });
        }
    };
    if (!due.empty()) {
        h.bed().simulator().ScheduleAt(origin + due[0], [&] { arrive(0); });
    }
    h.Drive();

    h.ReportRequests(due.size(), kFedLimit);
    h.ReportLayers(due.size());
    const auto& d = h.bed().dispatcher().counters();
    const std::uint64_t completions = h.completions().size();
    if (doubled > 0) report.Fail("query delivered twice");
    if (accepted != d.accepted || accepted != completions) {
        report.Fail("accepted != completed + failed");
    }
    if (d.completed + d.lost != accepted || d.lost != failed) {
        report.Fail("dispatcher completions disagree with deliveries");
    }
    for (int k = 0; k < h.bed().pod_count(); ++k) {
        if (h.bed().dispatcher().pod_in_flight(k) != 0) {
            report.Fail("queries still in flight at the end");
        }
    }
    report.Set("rejected", static_cast<double>(rejected));
    h.ReportObservability();
}

// --- sessions_failover ------------------------------------------------

constexpr int kSessions = 8;
constexpr int kGatherDocs = 8;
constexpr std::size_t kTopK = 4;
constexpr int kGathers = 7'000;
constexpr Time kThinkTime = Microseconds(250);
constexpr Time kGatherBudget = Milliseconds(2);
constexpr Time kGatherLimit = Milliseconds(1);
constexpr Time kBlackoutAt = Milliseconds(20);
// Late enough that the Health Monitor has concluded every blackout
// investigation: a re-attach racing an open investigation sees the
// redeployed rings drained again and never reports back.
constexpr Time kReattachAt = Milliseconds(150);

/**
 * Sort-and-truncate oracle for one merged top-k. Scoring is off, so
 * every answered document scores 0.0f and pod p contributes a run of
 * `answered[p]` equal-score entries; sorting all answered entries by
 * (score desc, position within the pod's run, pod id) and truncating
 * to k gives the pod sequence the merge contract promises. Each
 * pod's entries must also be distinct documents of the gather, in
 * ascending doc id order.
 */
bool MatchesOracle(const service::ScatterGatherDispatcher::GatherResult& r,
                   std::uint64_t first_doc, std::size_t k) {
    struct Key {
        int position;
        int pod;
    };
    std::vector<Key> oracle;
    for (const auto& shard : r.pods) {
        for (int i = 0; i < shard.answered; ++i) {
            oracle.push_back({i, shard.pod});
        }
    }
    std::sort(oracle.begin(), oracle.end(), [](const Key& a, const Key& b) {
        return a.position != b.position ? a.position < b.position
                                        : a.pod < b.pod;
    });
    if (oracle.size() > k) oracle.resize(k);
    if (r.top.size() != oracle.size()) return false;
    std::map<int, std::uint64_t> last_doc;
    std::vector<std::uint64_t> seen;
    for (std::size_t i = 0; i < r.top.size(); ++i) {
        const service::RankedDoc& d = r.top[i];
        if (d.score != 0.0f || d.pod != oracle[i].pod) return false;
        if (d.doc_id < first_doc || d.doc_id >= first_doc + r.doc_count) {
            return false;
        }
        const auto it = last_doc.find(d.pod);
        if (it != last_doc.end() && d.doc_id <= it->second) return false;
        last_doc[d.pod] = d.doc_id;
        if (std::find(seen.begin(), seen.end(), d.doc_id) != seen.end()) {
            return false;
        }
        seen.push_back(d.doc_id);
    }
    return true;
}

void RunSessionsFailover(const Options& options, Report& report) {
    Harness h(options, report);
    auto config = BaseConfig(3, 2);
    // Fast failure handling so the blackout and re-admission conclude
    // inside the run.
    config.pod.host.soft_reboot_duration = Milliseconds(30);
    config.pod.host.hard_reboot_duration = Milliseconds(40);
    config.pod.host.crash_reboot_delay = Milliseconds(10);
    config.pod.health.heartbeat_period = Milliseconds(10);
    config.pod.health.query_timeout = Milliseconds(30);
    config.front_end.scatter.max_reject_retries = 100;
    h.set_trace_capacity(kGathers * kGatherDocs * 16);
    Inputs inputs(options.seed);
    std::vector<rank::CompressedRequest> docs;
    docs.reserve(kGathers * kGatherDocs);
    for (int i = 0; i < kGathers * kGatherDocs; ++i) {
        docs.push_back(inputs.docs.Next());
    }
    if (!h.Setup(config, ModelsOf(docs))) return;
    FederationTestbed& bed = h.bed();
    service::SessionFrontEnd& door = bed.front_end();

    const Time origin = bed.Now();
    bed.pod(0).failure_injector().SchedulePodBlackout(origin + kBlackoutAt);
    bool reattached = false;
    Time reattach_started = 0, reattach_done = 0;
    bed.simulator().ScheduleAt(origin + kReattachAt, [&] {
        reattach_started = bed.Now();
        bed.ReattachPod(0, [&](bool ok) {
            reattached = ok;
            reattach_done = bed.Now();
        });
    });

    // Closed loop per session: the next gather goes out a think time
    // after the previous one is delivered. A burst of one extra gather
    // per session just before the blackout guarantees documents in
    // flight on pod 0 when it goes dark.
    int next = 0;
    std::uint64_t refused = 0, doubled = 0, oracle_misses = 0;
    std::vector<char> delivered(kGathers, 0);
    std::function<void(std::uint64_t, bool)> submit;
    submit = [&](std::uint64_t session, bool chain) {
        if (next >= kGathers) return;
        const int g = next++;
        const auto first = docs.begin() + g * kGatherDocs;
        std::vector<rank::CompressedRequest> set(first, first + kGatherDocs);
        const std::uint64_t id = door.Submit(
            session, rank::Query{}, std::move(set), kTopK, kGatherBudget,
            [&, g, session, chain](
                const service::ScatterGatherDispatcher::GatherResult& r) {
                if (delivered[g]++) {
                    ++doubled;
                    return;
                }
                if (!MatchesOracle(r, docs[g * kGatherDocs].doc_id, kTopK)) {
                    ++oracle_misses;
                }
                const bool ok = !r.partial && r.answered == r.doc_count;
                h.Complete({static_cast<std::uint64_t>(g), ok, r.answered > 0,
                            r.latency, 0.0f});
                if (!chain) return;
                bed.simulator().ScheduleAfter(
                    kThinkTime, [&submit, session] { submit(session, true); });
            });
        if (id == 0) {
            ++refused;
            if (chain) submit(session, true);
        }
    };
    std::vector<std::uint64_t> sessions;
    for (int s = 0; s < kSessions; ++s) sessions.push_back(door.OpenSession());
    for (const std::uint64_t s : sessions) submit(s, true);
    bed.simulator().ScheduleAt(origin + kBlackoutAt - Microseconds(50), [&] {
        for (const std::uint64_t s : sessions) submit(s, false);
    });
    h.Drive();
    for (const std::uint64_t s : sessions) door.CloseSession(s);

    h.ReportRequests(kGathers, kGatherLimit);
    h.ReportLayers(kGathers);
    report.Set("mgmt.reattach_sim_ms",
               ToSeconds(reattach_done - reattach_started) * 1e3);
    if (doubled > 0) report.Fail("gather delivered twice");
    if (h.completions().size() + refused !=
        static_cast<std::size_t>(kGathers)) {
        report.Fail("gathers unanswered");
    }
    if (bed.dispatcher().counters().lost > 0) {
        report.Fail("accepted queries lost");
    }
    if (oracle_misses > 0) {
        report.Fail(std::to_string(oracle_misses) +
                    " merged top-k lists differ from the oracle");
    }
    if (!reattached || bed.dispatcher().pod_stats(0).readmitted == 0) {
        report.Fail("pod 0 was not re-admitted");
    }
    h.ReportObservability();
}

}  // namespace

int main(int argc, char** argv) {
    Logger::set_level(LogLevel::kWarn);
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: %s <workload> <seed> <plain|traced|par2> "
                     "[replay]\n",
                     argv[0]);
        return 2;
    }
    Options options;
    options.workload = argv[1];
    options.seed = std::strtoull(argv[2], nullptr, 10);
    const std::string mode = argv[3];
    if (mode != "plain" && mode != "traced" && mode != "par2") {
        std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
        return 2;
    }
    options.mode = mode == "traced" ? Mode::kTraced
                   : mode == "par2" ? Mode::kPar2
                                    : Mode::kPlain;
    options.replay = argc > 4 && std::string(argv[4]) == "replay";

    Report report;
    if (options.workload == "ring_scored") {
        RunRingScored(options, report);
    } else if (options.workload == "fed_openloop") {
        RunFedOpenLoop(options, report);
    } else if (options.workload == "sessions_failover") {
        RunSessionsFailover(options, report);
    } else {
        std::fprintf(stderr, "unknown workload %s\n",
                     options.workload.c_str());
        return 2;
    }
    report.Set("peak_rss_mb", PeakRssMb());
    report.Print();
    return report.failed() ? 1 : 0;
}
