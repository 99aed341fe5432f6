#include "serve/serve_loop.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <ostream>
#include <utility>

namespace dream {
namespace serve {

ServeLoop::ServeLoop(const hw::SystemConfig& system,
                     const workload::Scenario& scenario,
                     const cost::CostTable& costs, ServeConfig config)
    : system_(system), scenario_(scenario), costs_(costs),
      config_(std::move(config)),
      latency_(config_.rollingSpanUs),
      outcomes_(config_.rollingSpanUs),
      violations_(config_.rollingSpanUs),
      drops_(config_.rollingSpanUs), offers_(config_.rollingSpanUs),
      rejects_(config_.rollingSpanUs)
{
}

void
ServeLoop::onFrameOutcome(const obs::FrameOutcome& outcome)
{
    outcomes_.record(outcome.tUs);
    if (outcome.violated)
        violations_.record(outcome.tUs);
    if (outcome.dropped)
        drops_.record(outcome.tUs);
    else
        latency_.record(outcome.tUs,
                        outcome.completionUs - outcome.arrivalUs);
}

ServeSnapshot
ServeLoop::takeSnapshot(double t_us)
{
    if (admission_)
        admission_->advanceTo(t_us);
    latency_.advanceTo(t_us);
    outcomes_.advanceTo(t_us);
    violations_.advanceTo(t_us);
    drops_.advanceTo(t_us);
    offers_.advanceTo(t_us);
    rejects_.advanceTo(t_us);

    const double nan = std::nan("");
    const obs::LatencyHistogram h = latency_.snapshot();
    ServeSnapshot s;
    s.tUs = t_us;
    s.queueDepth = sim_->liveFrames();
    s.windowSamples = h.count();
    s.p50Us = h.quantile(0.5);
    s.p99Us = h.quantile(0.99);
    const uint64_t n_out = outcomes_.count();
    s.violationRate =
        n_out ? double(violations_.count()) / double(n_out) : nan;
    s.dropRate = n_out ? double(drops_.count()) / double(n_out) : nan;
    const uint64_t n_off = offers_.count();
    s.rejectRate =
        n_off ? double(rejects_.count()) / double(n_off) : nan;
    s.backlogUs = admission_ ? admission_->backlogUs() : 0.0;

    if (config_.log) {
        char buf[224];
        std::snprintf(buf, sizeof buf,
                      "[%s] t=%.0fus live=%zu p50=%.1fus "
                      "p99=%.1fus viol=%.1f%% drop=%.1f%% "
                      "rej=%.1f%% backlog=%.0fus",
                      config_.logLabel.c_str(), s.tUs, s.queueDepth,
                      s.p50Us, s.p99Us, 100.0 * s.violationRate,
                      100.0 * s.dropRate, 100.0 * s.rejectRate,
                      s.backlogUs);
        *config_.log << buf << '\n';
    }
    return s;
}

void
ServeLoop::advanceWithReports(double target_us)
{
    const double limit = std::min(target_us, config_.windowUs);
    while (nextReportUs_ < limit) {
        sim_->advanceTo(nextReportUs_);
        snapshots_.push_back(takeSnapshot(nextReportUs_));
        nextReportUs_ += config_.reportIntervalUs;
    }
    sim_->advanceTo(limit);
}

void
ServeLoop::begin(sim::Scheduler& sched,
                 const workload::ArrivalSource& arrivals)
{
    // Fresh rolling state per serve.
    latency_ = obs::RollingQuantileWindow(config_.rollingSpanUs);
    outcomes_ = obs::RollingEventCounter(config_.rollingSpanUs);
    violations_ = obs::RollingEventCounter(config_.rollingSpanUs);
    drops_ = obs::RollingEventCounter(config_.rollingSpanUs);
    offers_ = obs::RollingEventCounter(config_.rollingSpanUs);
    rejects_ = obs::RollingEventCounter(config_.rollingSpanUs);
    snapshots_.clear();
    nextReportUs_ = config_.reportIntervalUs > 0.0
                        ? config_.reportIntervalUs
                        : std::numeric_limits<double>::infinity();
    tally_ = AdmissionStats{};

    wall0_ = std::chrono::steady_clock::now();

    sim::SimConfig sim_config;
    sim_config.windowUs = config_.windowUs;
    sim_config.seed = config_.seed;
    sim_config.arrivals = &arrivals;
    telemetry_ = obs::SimTelemetry{};
    telemetry_.metrics =
        config_.attachSimMetrics ? config_.metrics : nullptr;
    telemetry_.outcomes = this;
    sim_config.telemetry = &telemetry_;
    sim_ = std::make_unique<sim::Simulator>(system_, scenario_,
                                            costs_, sim_config);

    admission_.reset();
    if (config_.admission.enabled())
        admission_ = std::make_unique<AdmissionController>(
            config_.admission, scenario_, costs_);

    sim_->beginStream(sched);
}

AdmissionDecision
ServeLoop::offer(workload::FrameSpec frame)
{
    // Advance the simulator to just short of the arrival before
    // offering it. The margin matches the event loop's 1e-9 grouping
    // epsilon: a completion that lands within epsilon before the
    // arrival must still find the arrival pending, so both are
    // handled as one event group exactly like the offline run.
    advanceWithReports(frame.arrivalUs - 1e-9);
    offers_.record(frame.arrivalUs);
    if (admission_) {
        const AdmissionDecision decision = admission_->offer(
            frame, frame.arrivalUs, sim_->liveFrames());
        if (decision == AdmissionDecision::Reject) {
            rejects_.record(frame.arrivalUs);
            return decision;
        }
        sim_->offerArrival(std::move(frame));
        return decision;
    }
    tally_.offered += 1;
    tally_.admitted += 1;
    sim_->offerArrival(std::move(frame));
    return AdmissionDecision::Admit;
}

void
ServeLoop::advanceTo(double t_us)
{
    advanceWithReports(t_us);
}

ServeResult
ServeLoop::finish()
{
    advanceWithReports(config_.windowUs);

    ServeResult result;
    result.stats = sim_->finishStream();
    snapshots_.push_back(takeSnapshot(config_.windowUs));
    result.admission = admission_ ? admission_->stats() : tally_;
    result.snapshots = std::move(snapshots_);
    snapshots_.clear();

    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall0_)
            .count();
    publishMetrics(result, wall_ms);
    return result;
}

ServeLoop::Gauges
ServeLoop::pollGauges(double t_us)
{
    if (admission_)
        admission_->advanceTo(t_us);
    outcomes_.advanceTo(t_us);
    violations_.advanceTo(t_us);

    Gauges g;
    g.backlogUs = admission_ ? admission_->backlogUs() : 0.0;
    g.liveFrames = liveFrames();
    const uint64_t n_out = outcomes_.count();
    g.violationRate =
        n_out ? double(violations_.count()) / double(n_out) : 0.0;
    return g;
}

ServeResult
ServeLoop::run(sim::Scheduler& sched,
               workload::StreamSource& stream)
{
    begin(sched, stream);
    while (true) {
        auto batch = stream.waitDrain();
        if (batch.empty())
            break; // closed and drained — end of stream
        for (auto& frame : batch)
            offer(std::move(frame));
    }
    return finish();
}

void
ServeLoop::publishMetrics(const ServeResult& result, double wall_ms)
{
    if (!config_.metrics)
        return;
    obs::MetricsRegistry& m = *config_.metrics;
    const std::string& p = config_.metricsPrefix;
    const AdmissionStats& a = result.admission;
    m.count(p + "frames/offered", a.offered);
    m.count(p + "frames/admitted", a.admitted);
    m.count(p + "frames/degraded", a.degraded);
    m.count(p + "frames/rejected", a.rejected);
    m.count(p + "reports", result.snapshots.size());
    for (const auto& s : result.snapshots) {
        m.histogram(p + "queue_depth").record(double(s.queueDepth));
        // NaN-valued snapshots (empty spans) are dropped by record().
        m.histogram(p + "rolling/p99_us").record(s.p99Us);
    }
    const ServeSnapshot& last = result.snapshots.back();
    if (std::isfinite(last.p50Us))
        m.gaugeSet(p + "rolling/latency_p50_us", last.p50Us);
    if (std::isfinite(last.p99Us))
        m.gaugeSet(p + "rolling/latency_p99_us", last.p99Us);
    if (std::isfinite(last.violationRate))
        m.gaugeSet(p + "rolling/violation_rate",
                   last.violationRate);
    if (std::isfinite(last.dropRate))
        m.gaugeSet(p + "rolling/drop_rate", last.dropRate);
    if (std::isfinite(last.rejectRate))
        m.gaugeSet(p + "rolling/reject_rate", last.rejectRate);
    m.gaugeSet(p + "backlog_us", last.backlogUs);
    // Wall clock is host-dependent: volatile, like the scheduler's
    // decision-latency histogram.
    m.gaugeSet(p + "wall_ms", wall_ms);
    m.markVolatile(p + "wall_ms");
}

} // namespace serve
} // namespace dream
