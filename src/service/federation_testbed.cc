#include "service/federation_testbed.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <string>

namespace catapult::service {

FederationTestbed::FederationTestbed(Config config)
    : config_(std::move(config)) {
    assert(config_.pod_count >= 1);
    coordinator_ = &simulator_;
    if (config_.sharding.enabled) {
        // Lookahead derivation: a query (or completion) crossing the
        // pod boundary pays the front-door network transit plus the
        // pod-edge DMA doorbell/interrupt — the same constants the
        // in-pod shell models use. The epoch is the smaller hop, so
        // no message can land inside the epoch that produced it.
        const Time leg = config_.sharding.front_door_network +
                         config_.pod.fabric.shell.dma.interrupt_latency;
        inject_hop_ =
            config_.sharding.inject_hop > 0 ? config_.sharding.inject_hop
                                            : leg;
        completion_hop_ = config_.sharding.completion_hop > 0
                              ? config_.sharding.completion_hop
                              : leg;
        sim::SimulatorGroup::Config group_config;
        // Shard 0 = coordinator; pod k runs on shard 1 + k.
        group_config.shards = 1 + config_.pod_count;
        group_config.epoch = std::min(inject_hop_, completion_hop_);
        group_config.parallel = config_.sharding.parallel;
        group_config.max_threads = config_.sharding.max_threads;
        group_ = std::make_unique<sim::SimulatorGroup>(group_config);
        coordinator_ = &group_->shard(0);
    }
    if (config_.observability.enabled) {
        // One ShardObs per simulator shard; the whole plane collapses
        // to a single shard when every layer shares one simulator.
        const int obs_shards = group_ ? 1 + config_.pod_count : 1;
        plane_ = std::make_unique<obs::ObservabilityPlane>(
            obs_shards, config_.observability);
    }
    dispatcher_ = std::make_unique<FederatedDispatcher>(coordinator_,
                                                        config_.dispatcher);
    if (plane_) dispatcher_->SetObservability(plane_->shard(0));
    if (group_) {
        FederatedDispatcher::ShardBinding bind;
        bind.group = group_.get();
        bind.coordinator_shard = 0;
        bind.inject_hop = inject_hop_;
        bind.completion_hop = completion_hop_;
        dispatcher_->BindShardGroup(bind);
    }
    for (int k = 0; k < config_.pod_count; ++k) {
        mgmt::PodContext::Config pod_config = config_.pod;
        pod_config.pod_id = k;
        if (k > 0) {
            // De-correlate the pods' fabrics and injectors while pod 0
            // keeps the template seed (single-pod reproducibility).
            pod_config.seed =
                config_.pod.seed + 0x9E3779B97F4A7C15ull *
                                       static_cast<std::uint64_t>(k);
        }
        if (config_.pod_count > 1) {
            pod_config.service.service_name += "/pod" + std::to_string(k);
        }
        // Shard layout: pod k's entire stack — fabric, hosts, pool,
        // health plane — on shard 1 + k; the per-pod seed stream is
        // untouched, so the pod's internal behavior is mode-invariant.
        sim::Simulator* pod_sim =
            group_ ? &group_->shard(1 + k) : &simulator_;
        pod_config.shard_index = group_ ? 1 + k : -1;
        if (plane_) {
            pod_config.obs = plane_->shard(group_ ? 1 + k : 0);
        }
        pods_.push_back(
            std::make_unique<mgmt::PodContext>(pod_sim,
                                               std::move(pod_config)));
        if (group_) {
            dispatcher_->AttachPodShard(pods_.back().get(), 1 + k);
        } else {
            dispatcher_->AttachPod(pods_.back().get());
        }
    }
    SessionFrontEnd::Config fe_config = config_.front_end;
    fe_config.driver_threads = config_.pod.driver_threads;
    front_end_ = std::make_unique<SessionFrontEnd>(coordinator_,
                                                   dispatcher_.get(),
                                                   fe_config);
    if (plane_) {
        front_end_->SetObservability(plane_->shard(0));
        InstallObservability();
    }
}

void FederationTestbed::InstallObservability() {
    // Cadence driver: the group's epoch barrier is the race-free merge
    // point (workers provably idle on the driving thread); the classic
    // single simulator self-drives with a daemon tick instead.
    if (group_) {
        group_->SetBarrierHook(
            [p = plane_.get()](Time frontier) { p->AdvanceTo(frontier); });
    } else {
        plane_->AttachSimulator(&simulator_);
    }
    // Pull-collector mirroring pre-existing layer counters into the
    // merged registry at every merge. Absolute writes (Set) keep it
    // idempotent; every value here is simulated-time-deterministic
    // except the wall-clock ones, registered volatile so the
    // deterministic export stays mode-identical.
    plane_->AddCollector([this](obs::MetricRegistry& reg) {
        const auto& d = dispatcher_->counters();
        reg.counter("federation.accepted")->Set(d.accepted);
        reg.counter("federation.rejected")->Set(d.rejected);
        reg.counter("federation.completed")->Set(d.completed);
        reg.counter("federation.lost")->Set(d.lost);
        reg.counter("federation.failovers")->Set(d.failovers);
        reg.counter("federation.affinity_hits")->Set(d.affinity_hits);
        reg.counter("federation.breaker_trips")->Set(d.breaker_trips);
        reg.counter("federation.sheds")->Set(d.sheds);
        reg.counter("federation.readmissions")->Set(d.readmissions);
        const auto& s = front_end_->scatter().counters();
        reg.counter("frontend.gathers_submitted")->Set(s.submitted);
        reg.counter("frontend.gathers_delivered")->Set(s.delivered);
        reg.counter("frontend.gathers_partial")->Set(s.partial);
        reg.counter("frontend.docs_scattered")->Set(s.docs_scattered);
        reg.counter("frontend.docs_answered")->Set(s.docs_answered);
        reg.counter("frontend.docs_failed")->Set(s.docs_failed);
        reg.counter("frontend.stragglers")->Set(s.stragglers);
        reg.counter("frontend.merges")->Set(s.merges);
        reg.counter("frontend.merge_wall_ns", true)->Set(s.merge_wall_ns);
        const auto& fe = front_end_->counters();
        reg.counter("frontend.sessions_opened")->Set(fe.sessions_opened);
        reg.counter("frontend.sessions_closed")->Set(fe.sessions_closed);
        reg.counter("frontend.submitted")->Set(fe.submitted);
        reg.counter("frontend.refused")->Set(fe.refused);
        for (int k = 0; k < pod_count(); ++k) {
            mgmt::PodContext& p = pod(k);
            const auto& pc = p.pool().counters();
            const auto rc = p.pool().AggregateRingCounters();
            const auto& hc = p.health_monitor().counters();
            std::string prefix = "pod";
            prefix += std::to_string(k);
            prefix += ".";
            reg.counter(prefix + "dispatched")->Set(pc.dispatched);
            reg.counter(prefix + "recoveries")->Set(pc.recoveries);
            reg.counter(prefix + "injected")->Set(rc.injected);
            reg.counter(prefix + "completed")->Set(rc.completed);
            reg.counter(prefix + "timeouts")->Set(rc.timeouts);
            reg.counter(prefix + "investigations")->Set(hc.investigations);
            reg.counter(prefix + "fdr_postmortem_records")
                ->Set(hc.fdr_postmortem_records);
            reg.gauge(prefix + "rings_available")
                ->Set(p.pool().available_rings());
        }
        if (group_ != nullptr) {
            // Executor profiling. Round/message/frontier counts and
            // mailbox high-water marks are mode-identical (the rounds
            // are); per-worker item/wall-time split depends on the
            // work-stealing interleave, so those are volatile.
            const auto& prof = group_->profile();
            reg.counter("exec.rounds")->Set(prof.rounds);
            reg.counter("exec.round_items")->Set(prof.round_items);
            reg.counter("exec.messages_drained")->Set(prof.messages_drained);
            reg.gauge("exec.frontier_advance_ps")
                ->Set(prof.frontier_advance);
            const int n = group_->shard_count();
            for (int f = 0; f < n; ++f) {
                for (int t = 0; t < n; ++t) {
                    const std::uint32_t hwm = prof.edge_mailbox_hwm
                        [static_cast<std::size_t>(f * n + t)];
                    if (hwm == 0) continue;
                    std::string name = "exec.mailbox_hwm.";
                    name += std::to_string(f);
                    name += ".";
                    name += std::to_string(t);
                    reg.gauge(name, obs::GaugeMerge::kMax)
                        ->Set(static_cast<std::int64_t>(hwm));
                }
            }
            for (std::size_t e = 0; e < prof.executors.size(); ++e) {
                const auto& ex = prof.executors[e];
                std::string prefix = "exec.worker";
                prefix += std::to_string(e);
                prefix += ".";
                reg.counter(prefix + "items", true)->Set(ex.items);
                reg.counter(prefix + "busy_ns", true)->Set(ex.busy_ns);
                reg.counter(prefix + "wait_ns", true)->Set(ex.wait_ns);
            }
        }
    });
}

void FederationTestbed::ReattachPod(int index,
                                    std::function<void(bool)> on_done) {
    auto readmit = [this, index, on_done = std::move(on_done)](bool ok) {
        if (ok) dispatcher_->ReadmitPod(index);
        if (on_done) on_done(ok);
    };
    if (!group_) {
        ServicePod(index, std::move(readmit));
        return;
    }
    // The service sequence is pod-local and must run on the pod's
    // shard; only the final re-admission belongs to the coordinator.
    // One hop out carries the mgmt-plane command, one hop back carries
    // the redeploy verdict.
    const int shard = 1 + index;
    group_->Post(
        0, shard, coordinator_->Now() + inject_hop_,
        [this, index, shard, readmit = std::move(readmit)]() mutable {
            ServicePod(index, [this, shard, readmit = std::move(readmit)](
                                  bool ok) mutable {
                group_->Post(shard, 0,
                             group_->shard(shard).Now() + completion_hop_,
                             [ok, readmit = std::move(readmit)]() mutable {
                                 readmit(ok);
                             });
            });
        });
}

void FederationTestbed::ServicePod(int index,
                                   std::function<void(bool)> on_redeployed) {
    mgmt::PodContext& pod = this->pod(index);
    // 1. Field service: every host repaired and power-cycled. The
    //    servicing runs concurrently across the pod's machines; the
    //    rest of the sequence waits for the last one.
    auto pending = std::make_shared<int>(static_cast<int>(pod.hosts().size()));
    auto resume = [this, index,
                   on_redeployed = std::move(on_redeployed)]() mutable {
        mgmt::PodContext& ready = this->pod(index);
        // 2. The health plane forgives: every node was just field-
        //    serviced, so every watchdog grudge goes — dead flags
        //    (heartbeat coverage resumes), but also miss streaks,
        //    cooldowns and parked critical suspicions on nodes that
        //    had not escalated to dead yet; a leftover suspicion would
        //    investigate freshly replaced hardware and re-flag it. The
        //    pool's deferred blackout-era reports are dropped for the
        //    same reason.
        for (int node = 0; node < ready.fabric().node_count(); ++node) {
            ready.health_monitor().MarkNodeServiced(node);
        }
        ready.pool().ClearRecoveryBacklog();
        // 3. The forecaster forgets: blackout-era fault rates must not
        //    poison the serviced pod's fresh score (cold-start grace
        //    restarts, so the pod cannot be re-shed on a stale trend).
        ready.forecaster().ResetForReadmission();
        // 4. Redeploy the rings onto the serviced hardware; the caller
        //    hot-attaches the pod back into the dispatcher's rotation.
        ready.pool().Deploy(std::move(on_redeployed));
    };
    for (host::HostServer* host : pod.hosts()) {
        host->Service([pending, resume]() mutable {
            if (--*pending == 0) resume();
        });
    }
}

bool FederationTestbed::DeployAndSettle() {
    // Pods deploy concurrently: each owns its Mapping Manager, so only
    // rings within one pod serialize. Atomics because in sharded
    // parallel mode each pod's completion fires on its shard's worker
    // thread; the values are only read after Run() returns.
    std::atomic<int> pending{static_cast<int>(pods_.size())};
    std::atomic<bool> all_ok{true};
    for (auto& pod : pods_) {
        pod->Deploy([&](bool ok) {
            if (!ok) all_ok.store(false, std::memory_order_relaxed);
            pending.fetch_sub(1, std::memory_order_relaxed);
        });
    }
    Run();
    return all_ok.load() && pending.load() == 0;
}

}  // namespace catapult::service
