#include "service/load_generator.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace catapult::service {

namespace {

constexpr std::uint64_t kCorpusSeed = 42;
/** Driver threads registered per host (the PodContext default); Target
 *  clients and arrivals rotate over them. */
constexpr int kDriverThreads = 32;
/** Host-side software cost of the FPGA path's preprocessing (§4). */
const rank::SoftwareCostModel kHostCost{};

/** The next corpus document, forced to one model (no reload churn). */
rank::CompressedRequest NextRequest(rank::DocumentGenerator& generator) {
    rank::CompressedRequest request = generator.Next();
    request.query.model_id = 0;
    return request;
}

/**
 * One Poisson arrival stream: draws an exponential gap at `rate` per
 * second and, unless it lands at or past `deadline`, schedules
 * `on_arrival` there, which then chains the next draw. Exactly one
 * arrival is pending per stream, and gaps are drawn in arrival order.
 */
template <typename OnArrival>
void ScheduleNextArrival(sim::Simulator* simulator, Rng& rng, double rate,
                         Time deadline, OnArrival on_arrival) {
    if (rate <= 0.0) return;
    const double gap_s = rng.Exponential(1.0 / rate);
    const Time when = simulator->Now() + static_cast<Time>(gap_s * 1e12);
    if (when >= deadline) return;  // injection window closed
    simulator->ScheduleAt(when, [simulator, &rng, rate, deadline, on_arrival] {
        on_arrival();
        ScheduleNextArrival(simulator, rng, rate, deadline, on_arrival);
    });
}

}  // namespace

ClosedLoopInjector::ClosedLoopInjector(RankingService* service, Config config)
    : service_(service),
      config_(std::move(config)),
      generator_(kCorpusSeed) {
    assert(service_ != nullptr);
}

LoadResult ClosedLoopInjector::Run() {
    result_ = LoadResult{};
    started_ = service_->simulator()->Now();
    last_completion_ = started_;
    for (const int ring_index : config_.injecting_ring_indices) {
        // Partition the 64 DMA slots for this experiment's threads.
        service_->host(ring_index)->driver().AssignThreads(
            std::max(1, config_.threads_per_node));
        for (int thread = 0; thread < config_.threads_per_node; ++thread) {
            SendNext(ring_index, thread, config_.documents_per_thread);
        }
    }
    service_->simulator()->Run();
    result_.elapsed = last_completion_ - started_;
    return result_;
}

void ClosedLoopInjector::SendNext(int ring_index, int thread, int remaining) {
    if (remaining <= 0) return;
    const auto status = service_->Inject(
        ring_index, thread, NextRequest(generator_),
        [this, ring_index, thread, remaining](const ScoreResult& result) {
            if (result.ok) {
                ++result_.completed;
                result_.latency_us.Add(ToMicroseconds(result.latency));
            } else {
                ++result_.timeouts;
            }
            last_completion_ = service_->simulator()->Now();
            SendNext(ring_index, thread, remaining - 1);
        });
    if (status != host::SendStatus::kOk) {
        // Slot contention between logical threads sharing a slot is a
        // configuration error in closed-loop mode.
        LOG_WARN("loadgen") << "closed-loop send failed: "
                            << host::ToString(status);
    }
}

ClientLoop::ClientLoop(sim::Simulator* simulator, Target target,
                       Config config)
    : simulator_(simulator),
      target_(std::move(target)),
      config_(config),
      generator_(kCorpusSeed) {
    assert(simulator_ != nullptr && target_);
}

LoadResult ClientLoop::Run() {
    // Everything resolves inside the run, so the client state lives on
    // this stack frame.
    LoadResult result;
    const Time started = simulator_->Now();
    Time last_completion = started;
    int sent = 0;
    // Stagger client starts: two clients sharing a thread id (modulo
    // kDriverThreads) that inject on the same host inside one
    // injection-overhead window would both pass the slot-busy check
    // before either slot fills, and the loser surfaces as a spurious
    // timeout. A >overhead skew between same-thread clients avoids the
    // herd; steady-state re-injections are naturally de-phased.
    const int clients = std::min(config_.concurrency, config_.documents);
    std::vector<int> retries_left(static_cast<std::size_t>(clients),
                                  kMaxRetries);
    std::function<void(int)> send_next = [&](int client) {
        if (sent >= config_.documents) return;
        ++sent;
        const auto status = target_(
            client % kDriverThreads, NextRequest(generator_),
            [&, client](const ScoreResult& completion) {
                if (completion.ok) {
                    ++result.completed;
                    result.latency_us.Add(ToMicroseconds(completion.latency));
                } else {
                    ++result.timeouts;
                }
                last_completion = simulator_->Now();
                send_next(client);
            });
        if (status != host::SendStatus::kOk) {
            // Refused outright (every ring or pod drained mid-recovery,
            // or slot contention): keep the client alive and retry
            // shortly, up to its budget.
            --sent;
            if (--retries_left[static_cast<std::size_t>(client)] < 0) {
                ++result.timeouts;
                LOG_WARN("loadgen") << "client " << client << " gave up after "
                                    << kMaxRetries << " rejected sends";
                return;
            }
            simulator_->ScheduleAfter(kRetryDelay,
                                      [&, client] { send_next(client); });
            return;
        }
        retries_left[static_cast<std::size_t>(client)] = kMaxRetries;
    };
    for (int client = 0; client < clients; ++client) {
        simulator_->ScheduleAfter(Microseconds(client),
                                  [&, client] { send_next(client); });
    }
    simulator_->Run();
    result.elapsed = last_completion - started;
    return result;
}

ArrivalLoop::ArrivalLoop(sim::Simulator* simulator, Target target,
                         Config config)
    : simulator_(simulator),
      target_(std::move(target)),
      config_(std::move(config)),
      generator_(kCorpusSeed) {
    assert(simulator_ != nullptr && target_);
    assert(std::is_sorted(config_.phase_offsets.begin(),
                          config_.phase_offsets.end()));
}

ArrivalLoop::ArrivalLoop(sim::Simulator* simulator, Target target, Rng rng,
                         Config config)
    : ArrivalLoop(simulator, std::move(target), std::move(config)) {
    rng_ = rng;
}

std::size_t ArrivalLoop::PhaseOf(Time now) const {
    const auto& bounds = config_.phase_offsets;
    return static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), now - load_start_) -
        bounds.begin());
}

LoadResult ArrivalLoop::Run() {
    result_ = LoadResult{};
    result_.elapsed = config_.duration;
    arrival_seq_ = 0;
    load_start_ = simulator_->Now();
    // Phase spans (final phase runs to the end of the arrival window).
    const auto& bounds = config_.phase_offsets;
    result_.phases.resize(bounds.size() + 1);
    for (std::size_t p = 0; p < result_.phases.size(); ++p) {
        Phase& phase = result_.phases[p];
        phase.start = p == 0 ? 0 : bounds[p - 1];
        phase.span =
            (p < bounds.size() ? bounds[p] : config_.duration) - phase.start;
    }
    if (rng_) {
        ScheduleNextArrival(simulator_, *rng_, config_.rate_qps,
                            load_start_ + config_.duration,
                            [this] { InjectArrival(); });
    } else if (config_.rate_qps > 0.0) {
        const Time beat = static_cast<Time>(1e12 / config_.rate_qps);
        const Time arrivals = config_.duration / beat;
        for (Time i = 0; i < arrivals; ++i) {
            simulator_->ScheduleAt(load_start_ + beat * i,
                                   [this] { InjectArrival(); });
        }
    }
    if (group_) {
        group_->Run();
    } else {
        simulator_->Run();
    }
    return result_;
}

void ArrivalLoop::InjectArrival() {
    Phase& arrival_phase = result_.phases[PhaseOf(simulator_->Now())];
    ++arrival_phase.arrivals;
    const int thread = arrival_seq_++ % kDriverThreads;
    const auto status = target_(
        thread, NextRequest(generator_), [this](const ScoreResult& r) {
            // Attribute the completion to the phase it *lands* in: that
            // is what retained-QPS-across-an-incident means (a query
            // delayed across a fault boundary counts against the
            // incident phase).
            Phase& phase = result_.phases[PhaseOf(simulator_->Now())];
            if (r.ok) {
                ++phase.completed;
                ++result_.completed;
                if (config_.slo == 0 || r.latency <= config_.slo) {
                    ++phase.completed_in_slo;
                }
                phase.latency_us.Add(ToMicroseconds(r.latency));
                result_.latency_us.Add(ToMicroseconds(r.latency));
            } else {
                ++phase.timeouts;
                ++result_.timeouts;
            }
        });
    if (status == host::SendStatus::kOk) {
        ++arrival_phase.accepted;
        ++result_.accepted;
    } else {
        // An arrival the admission control refuses is answered now and
        // dropped, never queued client-side.
        ++arrival_phase.rejected;
        ++result_.rejected;
    }
}

OpenLoopInjector::OpenLoopInjector(RankingService* service, Rng rng,
                                   Config config)
    : service_(service),
      rng_(rng),
      config_(std::move(config)),
      generator_(kCorpusSeed) {
    assert(service_ != nullptr);
}

LoadResult OpenLoopInjector::Run() {
    result_ = LoadResult{};
    nodes_.clear();
    nodes_.resize(config_.injecting_ring_indices.size());
    auto* sim = service_->simulator();
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        NodeState& node = nodes_[i];
        node.slot_busy.assign(
            static_cast<std::size_t>(config_.threads_per_node), false);
        node.cpu = std::make_unique<rank::CpuPool>(sim, rng_.Fork());
        service_->host(config_.injecting_ring_indices[i])
            ->driver()
            .AssignThreads(std::max(1, config_.threads_per_node));
    }
    deadline_ = sim->Now() + config_.duration;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const int node_index = static_cast<int>(i);
        ScheduleNextArrival(sim, rng_, config_.rate_per_server, deadline_,
                            [this, node_index] {
                                PendingDoc doc;
                                doc.request = NextRequest(generator_);
                                doc.arrived = service_->simulator()->Now();
                                nodes_[static_cast<std::size_t>(node_index)]
                                    .backlog.push_back(std::move(doc));
                                TryDispatch(node_index);
                            });
    }
    sim->Run();
    result_.elapsed = config_.duration;
    return result_;
}

void OpenLoopInjector::TryDispatch(int node_index) {
    NodeState& node = nodes_[static_cast<std::size_t>(node_index)];
    if (node.backlog.empty()) return;
    // Find a free thread slot (§3.1: threads own slots exclusively).
    int thread = -1;
    for (std::size_t t = 0; t < node.slot_busy.size(); ++t) {
        if (!node.slot_busy[t]) {
            thread = static_cast<int>(t);
            break;
        }
    }
    if (thread < 0) return;  // all slots outstanding; stay in backlog

    PendingDoc doc = std::move(node.backlog.front());
    node.backlog.pop_front();
    node.slot_busy[static_cast<std::size_t>(thread)] = true;

    // The software portion of ranking runs first (§4), then the encoded
    // document is injected into the local FPGA.
    const Time prep = kHostCost.PrepServiceTime(doc.request);
    node.cpu->Submit(prep, [this, node_index, doc = std::move(doc),
                            thread]() mutable {
        InjectPrepared(node_index, std::move(doc), thread);
    });
}

void OpenLoopInjector::InjectPrepared(int node_index, PendingDoc doc,
                                      int thread) {
    const int ring_index =
        config_.injecting_ring_indices[static_cast<std::size_t>(node_index)];
    const Time arrived = doc.arrived;
    const auto status = service_->Inject(
        ring_index, thread, doc.request,
        [this, node_index, thread, arrived](const ScoreResult& result) {
            NodeState& n = nodes_[static_cast<std::size_t>(node_index)];
            n.slot_busy[static_cast<std::size_t>(thread)] = false;
            if (result.ok) {
                // Steady-state accounting: completions after the
                // injection window closes are backlog drain, not
                // sustained throughput.
                if (service_->simulator()->Now() <= deadline_) {
                    ++result_.completed;
                }
                // End-to-end: arrival (backlog) through prep, fabric and
                // response delivery.
                result_.latency_us.Add(
                    ToMicroseconds(service_->simulator()->Now() - arrived));
            } else {
                ++result_.timeouts;
            }
            TryDispatch(node_index);
        });
    if (status != host::SendStatus::kOk) {
        NodeState& n = nodes_[static_cast<std::size_t>(node_index)];
        n.slot_busy[static_cast<std::size_t>(thread)] = false;
        ++result_.timeouts;
        TryDispatch(node_index);
    }
}

SoftwareLoadRunner::SoftwareLoadRunner(sim::Simulator* simulator,
                                       const rank::Model* model, Rng rng,
                                       Config config)
    : simulator_(simulator),
      model_(model),
      rng_(rng),
      config_(config),
      generator_(kCorpusSeed) {
    assert(simulator_ != nullptr && model_ != nullptr);
    for (int s = 0; s < config_.servers; ++s) {
        servers_.push_back(std::make_unique<rank::SoftwareRankServer>(
            simulator_, rng_.Fork()));
    }
}

LoadResult SoftwareLoadRunner::Run() {
    result_ = LoadResult{};
    deadline_ = simulator_->Now() + config_.duration;
    for (int s = 0; s < config_.servers; ++s) {
        ScheduleNextArrival(
            simulator_, rng_, config_.rate_per_server, deadline_, [this, s] {
                servers_[static_cast<std::size_t>(s)]->Submit(
                    generator_.Next(), *model_, [this](Time latency) {
                        if (simulator_->Now() <= deadline_) {
                            ++result_.completed;
                        }
                        result_.latency_us.Add(ToMicroseconds(latency));
                    });
            });
    }
    simulator_->Run();
    result_.elapsed = config_.duration;
    return result_;
}

}  // namespace catapult::service
