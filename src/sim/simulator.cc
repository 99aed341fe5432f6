#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "costmodel/layer_cost.h"
#include "obs/telemetry.h"
#include "sim/context_switch.h"

namespace dream {
namespace sim {

namespace {

/** Safety bound on scheduler invocations per event (progress guard). */
constexpr int kMaxPlanRounds = 1024;

/** Tolerance for floating error at the window boundary (us). */
constexpr double kWindowEpsilonUs = 1e-3;

/** True if a deadline falls inside the accounting window. */
bool
inWindow(double deadline_us, double window_us)
{
    return deadline_us <= window_us + kWindowEpsilonUs;
}

} // anonymous namespace

Simulator::Simulator(const hw::SystemConfig& system,
                     const workload::Scenario& scenario,
                     const cost::CostTable& costs, SimConfig config)
    : system_(system), scenario_(scenario), costs_(costs),
      config_(config)
{
    assert(&costs_.system() != nullptr);
}

Request*
Simulator::headOfTask(workload::TaskId task)
{
    auto& q = taskQueues_[task];
    while (!q.empty() && requests_[q.front()]->finished())
        q.pop_front();
    if (q.empty())
        return nullptr;
    return requests_[q.front()].get();
}

void
Simulator::admitFrame(workload::FrameSpec spec)
{
    auto req = std::make_unique<Request>();
    req->id = int(requests_.size());
    req->task = spec.task;
    req->frameIdx = spec.frameIdx;
    req->arrivalUs = spec.arrivalUs;
    req->deadlineUs = spec.deadlineUs;
    req->path = std::move(spec.path);
    req->lastEventUs = spec.arrivalUs;
    req->childTriggers = std::move(spec.childTriggers);

    // Worst-case energy of the materialised path (Algorithm 2 L5
    // denominator): the worst layer-accelerator pairing per layer.
    for (const auto& l : req->path)
        req->worstCaseEnergyMj += costs_.maxEnergyMj(l);

    TaskStats& ts = stats_.tasks[spec.task];
    if (inWindow(spec.deadlineUs, config_.windowUs)) {
        ts.totalFrames += 1;
        ts.worstCaseEnergyMj += req->worstCaseEnergyMj;
    }

    taskQueues_[spec.task].push_back(req->id);
    ctx_.live.push_back(req.get());
    ctx_.livePerTask[spec.task] += 1;

    if (config_.telemetry && config_.telemetry->trace) {
        config_.telemetry->trace->instant(
            framesTid_, "frame_arrival", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", spec.task)
                .integer("frame", spec.frameIdx)
                .num("arrival_us", spec.arrivalUs)
                .num("deadline_us", spec.deadlineUs));
    }

    requests_.push_back(std::move(req));
}

void
Simulator::retireFrame(const Request& req)
{
    // O(live) per finished frame, not per round; erase (not
    // swap-and-pop) keeps the set in admission order.
    const auto it = std::find(ctx_.live.begin(), ctx_.live.end(), &req);
    assert(it != ctx_.live.end());
    ctx_.live.erase(it);
    assert(ctx_.livePerTask[req.task] > 0);
    ctx_.livePerTask[req.task] -= 1;
}

void
Simulator::completeJob(const Job& job)
{
    Request& req = *requests_[job.requestId];
    AcceleratorState& acc = accels_[job.accel];

    assert(req.inFlight);
    req.inFlight = false;
    req.nextLayer = job.layerEnd;
    req.lastEventUs = job.endUs;
    req.lastAccel = job.accel;

    acc.freeSlices += job.slices;
    assert(acc.freeSlices <= acc.config->numSlices);
    assert(acc.runningJobs > 0);
    acc.runningJobs -= 1;
    // Close the accelerator's busy interval when its last job ends:
    // accelBusyUs is the union of job intervals (co-located jobs
    // overlap), the same union dream_prof recomputes from job spans.
    if (acc.runningJobs == 0)
        stats_.accelBusyUs[job.accel] +=
            job.endUs - busyStartUs_[job.accel];

    // Record what this job leaves in the on-chip buffer: the input of
    // the request's next layer when unfinished, nothing otherwise.
    if (acc.residentRequestId == req.id) {
        if (req.nextLayer < req.path.size()) {
            const auto& next = req.path[req.nextLayer];
            acc.residentBytes =
                next.inputBytes() / std::max<uint32_t>(1, next.repeat);
        } else {
            acc.residentRequestId = -1;
            acc.residentBytes = 0;
        }
    }

    if (req.nextLayer < req.path.size())
        return;

    // Frame complete.
    req.done = true;
    req.completionUs = job.endUs;
    retireFrame(req);
    TaskStats& ts = stats_.tasks[req.task];
    const bool counted = inWindow(req.deadlineUs, config_.windowUs);
    if (counted) {
        ts.completedFrames += 1;
        ts.sumLatencyUs += req.completionUs - req.arrivalUs;
        if (req.completionUs > req.deadlineUs)
            ts.violatedFrames += 1;
    }

    if (config_.telemetry) {
        if (config_.telemetry->metrics) {
            config_.telemetry->metrics->histogram("frame/latency_us")
                .record(req.completionUs - req.arrivalUs);
        }
        if (config_.telemetry->trace &&
            req.completionUs > req.deadlineUs) {
            config_.telemetry->trace->instant(
                framesTid_, "deadline_violation", "frame", nowUs_,
                obs::TraceArgs()
                    .integer("task", req.task)
                    .integer("frame", req.frameIdx)
                    .num("deadline_us", req.deadlineUs)
                    .num("completion_us", req.completionUs));
        }
        if (config_.telemetry->outcomes) {
            obs::FrameOutcome fo;
            fo.task = req.task;
            fo.frameIdx = req.frameIdx;
            fo.tUs = nowUs_;
            fo.arrivalUs = req.arrivalUs;
            fo.deadlineUs = req.deadlineUs;
            fo.completionUs = req.completionUs;
            fo.violated = req.completionUs > req.deadlineUs;
            fo.dropped = false;
            config_.telemetry->outcomes->onFrameOutcome(fo);
        }
    }

    // Launch dependent pipeline stages whose cascade gate fired.
    const auto children = scenario_.childrenOf(req.task);
    for (size_t i = 0; i < children.size(); ++i) {
        if (i < req.childTriggers.size() && req.childTriggers[i]) {
            admitFrame(source_->childFrame(children[i], req.frameIdx,
                                           req.arrivalUs,
                                           req.completionUs));
        }
    }
}

void
Simulator::applySwitch(const VariantSwitch& sw)
{
    Request& req = *requests_[sw.requestId];
    const models::Model& model = scenario_.tasks[req.task].model;
    assert(model.isSupernet());
    assert(!req.inFlight && !req.finished());
    assert(req.nextLayer <= model.supernetSwitchPoint);
    assert(sw.variant >= 0 && size_t(sw.variant) <= model.variants.size());
    req.path = model.variantPath(size_t(sw.variant));
    req.variant = sw.variant;
    req.pathVersion += 1;

    if (config_.telemetry && config_.telemetry->trace) {
        config_.telemetry->trace->instant(
            framesTid_, "variant_switch", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", req.task)
                .integer("frame", req.frameIdx)
                .integer("variant", sw.variant));
    }
}

void
Simulator::applyDrop(const FrameDrop& drop)
{
    Request& req = *requests_[drop.requestId];
    assert(!req.inFlight && !req.finished());
    req.dropped = true;
    retireFrame(req);
    TaskStats& ts = stats_.tasks[req.task];
    if (inWindow(req.deadlineUs, config_.windowUs)) {
        ts.droppedFrames += 1;
        ts.violatedFrames += 1;
    }
    // Dropping a frame suppresses its dependent stages: dependency-
    // chain condition 3 restricts drops to leaf models, but guard
    // regardless by clearing the triggers.
    req.childTriggers.assign(req.childTriggers.size(), 0);

    if (config_.telemetry && config_.telemetry->trace) {
        config_.telemetry->trace->instant(
            framesTid_, "frame_drop", "frame", nowUs_,
            obs::TraceArgs()
                .integer("task", req.task)
                .integer("frame", req.frameIdx)
                .num("deadline_us", req.deadlineUs));
    }
    if (config_.telemetry && config_.telemetry->outcomes) {
        obs::FrameOutcome fo;
        fo.task = req.task;
        fo.frameIdx = req.frameIdx;
        fo.tUs = nowUs_;
        fo.arrivalUs = req.arrivalUs;
        fo.deadlineUs = req.deadlineUs;
        fo.completionUs = std::nan("");
        fo.violated = true;
        fo.dropped = true;
        config_.telemetry->outcomes->onFrameOutcome(fo);
    }
}

void
Simulator::applyDispatch(const Dispatch& d)
{
    Request& req = *requests_[d.requestId];
    AcceleratorState& acc = accels_[d.accel];
    const uint32_t slices =
        d.slices == 0 ? acc.config->numSlices : d.slices;

    assert(!req.inFlight && !req.finished());
    assert(req.arrivalUs <= nowUs_ + 1e-9);
    assert(headOfTask(req.task) == &req && "per-task FIFO order");
    assert(d.numLayers >= 1 && d.numLayers <= req.remainingLayers());
    assert(slices >= 1 && slices <= acc.freeSlices);

    Job job;
    job.requestId = req.id;
    job.layerBegin = req.nextLayer;
    job.layerEnd = req.nextLayer + d.numLayers;
    job.accel = d.accel;
    job.slices = slices;
    job.startUs = nowUs_;

    double latency_us = 0.0;
    double energy_mj = 0.0;
    for (size_t i = job.layerBegin; i < job.layerEnd; ++i) {
        const auto& c = costs_.cost(req.path[i], size_t(d.accel), slices);
        latency_us += c.latencyUs;
        energy_mj += c.energyMj;
    }

    // Context switch: flush the resident activations of the previous
    // request, fetch this request's live activations (Section 3.4).
    const SwitchTraffic cs = switchTraffic(acc, req);
    double cs_latency_us = 0.0;
    if (cs.any()) {
        const double cs_energy =
            cost::contextSwitchEnergyMj(cs.flushBytes, cs.fetchBytes);
        energy_mj += cs_energy;
        cs_latency_us = cost::contextSwitchLatencyUs(cs.total(),
                                                     *acc.config,
                                                     slices);
        latency_us += cs_latency_us;
        stats_.contextSwitches += 1;
        stats_.contextSwitchEnergyMj += cs_energy;
    }

    job.endUs = nowUs_ + latency_us;
    req.inFlight = true;
    req.energyMj += energy_mj;
    stats_.tasks[req.task].energyMj += energy_mj;

    acc.freeSlices -= slices;
    // An idle accelerator turns busy: open its busy interval.
    if (acc.runningJobs == 0)
        busyStartUs_[d.accel] = nowUs_;
    acc.runningJobs += 1;
    acc.lastTask = req.task;
    acc.busyUntilUs = std::max(acc.busyUntilUs, job.endUs);
    acc.residentRequestId = req.id;

    if (config_.telemetry) {
        // Queue wait: arrival to first layer dispatch.
        if (config_.telemetry->metrics && job.layerBegin == 0) {
            config_.telemetry->metrics
                ->histogram("frame/queue_wait_us")
                .record(nowUs_ - req.arrivalUs);
        }
        if (config_.telemetry->trace) {
            obs::TraceEventSink& trace = *config_.telemetry->trace;
            obs::TraceArgs args;
            args.integer("task", req.task)
                .integer("frame", req.frameIdx)
                .integer("request", req.id)
                .str("layers",
                     std::to_string(job.layerBegin) + ':' +
                         std::to_string(job.layerEnd))
                .integer("slices", (long long) slices);
            if (cs.any())
                args.num("cs_us", cs_latency_us);
            trace.span(d.accel,
                       scenario_.tasks[req.task].model.name, "job",
                       nowUs_, latency_us, args);
            // The context-switch cost nests as a child span at the
            // start of the job it delays (emitted after the longer
            // enclosing span so same-ts slices nest correctly).
            if (cs.any()) {
                trace.span(d.accel, "context_switch", "cs", nowUs_,
                           cs_latency_us,
                           obs::TraceArgs()
                               .integer("flush_bytes",
                                        (long long) cs.flushBytes)
                               .integer("fetch_bytes",
                                        (long long) cs.fetchBytes));
            }
        }
    }

    completions_.push(JobEvent{job.endUs, job});
}

void
Simulator::buildContext()
{
    // The live set is maintained by admitFrame/retireFrame; a frame
    // is admitted only once the clock reaches its arrival, so every
    // live frame has arrived. Only a task's head can finish (per-task
    // FIFO dispatch; drops pick ready heads), so the head scan below
    // is all a round has to redo.
    ctx_.nowUs = nowUs_;
    ctx_.ready.clear();
    for (workload::TaskId t = 0; t < workload::TaskId(taskQueues_.size());
         ++t) {
        Request* head = headOfTask(t);
        if (head && !head->inFlight && head->arrivalUs <= nowUs_ + 1e-9)
            ctx_.ready.push_back(head);
    }
}

bool
Simulator::applyPlan(const Plan& plan)
{
    // Arm the optional re-invocation timer. Contract (sim/scheduler.h):
    // only a strictly-future wake-up is honoured; stale (past or
    // present) wake-ups are dropped here, otherwise a scheduler that
    // keeps requesting one would pin virtual time and the event loop
    // would never reach the end of the window.
    if (plan.wakeUpUs > nowUs_)
        wakeups_.push(plan.wakeUpUs);
    assert((wakeups_.empty() || wakeups_.top() > nowUs_) &&
           "stale wake-ups must never be armed");

    bool progress = false;
    for (const auto& sw : plan.switches) {
        applySwitch(sw);
        progress = true;
    }
    for (const auto& dr : plan.drops) {
        applyDrop(dr);
        progress = true;
    }
    for (const auto& d : plan.dispatches) {
        applyDispatch(d);
        progress = true;
    }
    return progress;
}

void
Simulator::invokeScheduler(Scheduler& sched)
{
    // Wall-clock decision timing is only taken when telemetry is
    // attached; the result is inherently host-dependent, so it rides
    // on the trace event (`wall_ns`) and a volatile histogram — never
    // in the canonical --metrics dump.
    obs::SimTelemetry* tel = config_.telemetry;
    const auto t0 = tel ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};

    int rounds = 0;
    bool converged = false;
    for (int round = 0; round < kMaxPlanRounds; ++round) {
        buildContext();
        Plan plan = sched.plan(ctx_);
        stats_.schedulerInvocations += 1;
        ++rounds;
        if (!applyPlan(plan)) {
            converged = true;
            break;
        }
    }
    assert(converged && "scheduler failed to converge");
    (void) converged;

    if (tel) {
        const double wall_ns =
            double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
        if (tel->metrics) {
            tel->metrics->histogram("sched/plan_rounds")
                .record(double(rounds));
            auto& wall = tel->metrics->histogram(
                "sched/decision_wall_ns");
            tel->metrics->markVolatile("sched/decision_wall_ns");
            wall.record(wall_ns);
        }
        if (tel->trace) {
            tel->trace->span(schedTid_, "schedule", "sched", nowUs_,
                             0.0,
                             obs::TraceArgs()
                                 .integer("rounds", rounds)
                                 .num("wall_ns", wall_ns));
        }
    }
}

RunStats
Simulator::run(Scheduler& sched)
{
    beginStream(sched);
    auto arrivals = source_->rootFrames(config_.windowUs);
    // Stable: simultaneous arrivals keep source order, so a trace
    // replay (whose source order is the recorded admission order)
    // reproduces the original run's admission sequence exactly.
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) {
                         return a.arrivalUs < b.arrivalUs;
                     });
    for (auto& spec : arrivals)
        offerArrival(std::move(spec));
    return finishStream();
}

void
Simulator::beginStream(Scheduler& sched)
{
    // Reset per-run state.
    requests_.clear();
    taskQueues_.assign(scenario_.tasks.size(), {});
    accels_.clear();
    for (const auto& cfg : system_.accelerators) {
        AcceleratorState st;
        st.config = &cfg;
        st.freeSlices = cfg.numSlices;
        accels_.push_back(st);
    }
    completions_ = {};
    wakeups_ = {};
    nowUs_ = 0.0;
    stats_ = RunStats{};
    stats_.windowUs = config_.windowUs;
    stats_.accelBusyUs.assign(accels_.size(), 0.0);
    busyStartUs_.assign(accels_.size(), 0.0);
    schedTid_ = int64_t(accels_.size());
    framesTid_ = schedTid_ + 1;
    stats_.tasks.resize(scenario_.tasks.size());
    for (size_t t = 0; t < scenario_.tasks.size(); ++t) {
        stats_.tasks[t].model = scenario_.tasks[t].model.name;
        const auto& m = scenario_.tasks[t].model;
        if (m.isSupernet())
            stats_.tasks[t].variantStarts.assign(m.variants.size() + 1,
                                                 0);
    }

    if (config_.arrivals) {
        ownedSource_.reset();
        source_ = config_.arrivals;
    } else {
        ownedSource_ = std::make_unique<workload::FrameSource>(
            scenario_, config_.seed);
        source_ = ownedSource_.get();
    }
    if (config_.telemetry && config_.telemetry->trace) {
        // Track naming: tid 0..N-1 = accelerators (paired with the
        // Table 2 config name), then the scheduler and the frame-
        // lifecycle instants. dream_prof keys its utilization table
        // off the "accel" prefix.
        obs::TraceEventSink& trace = *config_.telemetry->trace;
        for (size_t i = 0; i < accels_.size(); ++i)
            trace.threadName(int64_t(i),
                             "accel" + std::to_string(i) + ' ' +
                                 accels_[i].config->name);
        trace.threadName(schedTid_, "scheduler");
        trace.threadName(framesTid_, "frames");
    }

    pendingArrivals_.clear();
    nextArrival_ = 0;
    streamSched_ = &sched;
    streaming_ = true;

    ctx_.windowUs = config_.windowUs;
    ctx_.system = &system_;
    ctx_.costs = &costs_;
    ctx_.scenario = &scenario_;
    ctx_.accels = &accels_;
    ctx_.stats = &stats_;
    ctx_.live.clear();
    ctx_.livePerTask.assign(scenario_.tasks.size(), 0);
    buildContext();
    sched.reset(ctx_);
}

void
Simulator::offerArrival(workload::FrameSpec spec)
{
    assert(streaming_ && "offerArrival outside a stream");
    if (!pendingArrivals_.empty() &&
        spec.arrivalUs < pendingArrivals_.back().arrivalUs)
        throw std::invalid_argument(
            "stream arrivals must be offered in nondecreasing "
            "arrival order");
    if (spec.arrivalUs < nowUs_ - 1e-9)
        throw std::invalid_argument(
            "stream arrival offered behind the stream clock");
    pendingArrivals_.push_back(std::move(spec));
}

void
Simulator::advanceTo(double limit_us)
{
    assert(streaming_ && "advanceTo outside a stream");
    const double limit = std::min(limit_us, config_.windowUs);
    // With limit == windowUs this is exactly run()'s event loop: the
    // break test `t >= limit` degenerates to `t >= windowUs`, so a
    // stream that offers every arrival before advancing past it
    // replays the offline run event-for-event.
    while (true) {
        double t = config_.windowUs;
        if (nextArrival_ < pendingArrivals_.size())
            t = std::min(t, pendingArrivals_[nextArrival_].arrivalUs);
        if (!completions_.empty())
            t = std::min(t, completions_.top().endUs);
        if (!wakeups_.empty())
            t = std::min(t, wakeups_.top());
        if (t >= limit)
            break;

        nowUs_ = t;
        while (!completions_.empty() &&
               completions_.top().endUs <= nowUs_ + 1e-9) {
            const Job job = completions_.top().job;
            completions_.pop();
            completeJob(job);
        }
        while (nextArrival_ < pendingArrivals_.size() &&
               pendingArrivals_[nextArrival_].arrivalUs <=
                   nowUs_ + 1e-9) {
            admitFrame(std::move(pendingArrivals_[nextArrival_]));
            ++nextArrival_;
        }
        while (!wakeups_.empty() && wakeups_.top() <= nowUs_ + 1e-9)
            wakeups_.pop();

        invokeScheduler(*streamSched_);
    }
}

RunStats
Simulator::finishStream()
{
    // Idempotent: a finished stream just returns its stats again, so
    // N-device serve loops may be finalized defensively in any order.
    if (!streaming_)
        return stats_;
    advanceTo(config_.windowUs);
    finalizeStats();
    streaming_ = false;
    streamSched_ = nullptr;
    return stats_;
}

void
Simulator::finalizeStats()
{
    // Close busy intervals still open at window end (jobs running
    // past the window count up to the window boundary, so
    // utilization = busy / window stays <= 1).
    for (size_t i = 0; i < accels_.size(); ++i) {
        if (accels_[i].runningJobs > 0)
            stats_.accelBusyUs[i] +=
                config_.windowUs - busyStartUs_[i];
        stats_.accelBusyUs[i] =
            std::min(stats_.accelBusyUs[i], config_.windowUs);
    }

    // Frames unfinished at window end with an in-window deadline are
    // violations; Supernet variant usage is tallied over started
    // frames; the per-frame trace is emitted in admission order.
    // Every admitted frame is recorded — frames whose deadline falls
    // beyond the window (inWindow == false) still contended for
    // accelerator time, and a trace that omitted them could not be
    // replayed faithfully.
    for (const auto& reqp : requests_) {
        const Request& req = *reqp;
        const bool counted = inWindow(req.deadlineUs, config_.windowUs);
        TaskStats& ts = stats_.tasks[req.task];
        if (counted && !req.finished())
            ts.violatedFrames += 1;
        if (counted && !ts.variantStarts.empty() && req.started())
            ts.variantStarts[size_t(req.variant)] += 1;
        FrameRecord fr;
        fr.task = req.task;
        fr.frameIdx = req.frameIdx;
        fr.arrivalUs = req.arrivalUs;
        fr.deadlineUs = req.deadlineUs;
        fr.completionUs = req.completionUs;
        fr.dropped = req.dropped;
        // A frame unfinished at window end only counts as violated
        // when its deadline lay inside the window — an out-of-window
        // frame cut off mid-flight may still have met its deadline.
        fr.violated = req.dropped ||
                      (req.done && req.completionUs > req.deadlineUs) ||
                      (counted && !req.finished());
        fr.inWindow = counted;
        fr.variant = req.variant;
        fr.energyMj = req.energyMj;
        stats_.frames.push_back(fr);
    }

    // End-of-run metrics: deterministic sim-time aggregates only
    // (everything here derives from RunStats, which is byte-identical
    // for any worker count).
    if (config_.telemetry && config_.telemetry->metrics) {
        obs::MetricsRegistry& m = *config_.telemetry->metrics;
        uint64_t total = 0, completed = 0, violated = 0, dropped = 0;
        for (const auto& ts : stats_.tasks) {
            total += ts.totalFrames;
            completed += ts.completedFrames;
            violated += ts.violatedFrames;
            dropped += ts.droppedFrames;
        }
        m.count("frames/total", total);
        m.count("frames/completed", completed);
        m.count("frames/violated", violated);
        m.count("frames/dropped", dropped);
        m.count("frames/admitted", requests_.size());
        m.count("sim/context_switches", stats_.contextSwitches);
        m.count("sched/invocations", stats_.schedulerInvocations);
        m.gaugeAdd("sim/window_us", config_.windowUs);
        m.gaugeAdd("sim/energy_mj", stats_.totalEnergyMj());
        for (size_t i = 0; i < accels_.size(); ++i) {
            const std::string prefix =
                "accel/" + std::to_string(i) + '/';
            m.gaugeAdd(prefix + "busy_us", stats_.accelBusyUs[i]);
            m.gaugeAdd(prefix + "idle_us",
                       config_.windowUs - stats_.accelBusyUs[i]);
        }
    }
}

} // namespace sim
} // namespace dream
