#include "trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) * 1e-6;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

Tracer&
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

int64_t
Tracer::begin(const char* name, int64_t parent)
{
    if (!enabled_)
        return -1;
    const double t = secondsSince(epoch_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, t, t});
    return int64_t(spans_.size() - 1);
}

void
Tracer::end(int64_t id)
{
    if (id < 0)
        return;
    const double t = secondsSince(epoch_);
    std::lock_guard<std::mutex> lock(mu_);
    spans_[size_t(id)].t1 = t;
}

void
Tracer::addCalls(int64_t parent, const char* name, uint64_t calls,
                 double seconds)
{
    if (!enabled_ || calls == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({name, parent, calls, seconds});
}

std::vector<Tracer::Summary>
Tracer::summarize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // Children of each span: intervals of child spans (their union is
    // what the parent spends waiting on them, since workers run child
    // spans in parallel) and the summed time of aggregated calls.
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans_.size());
    std::vector<double> callS(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            kids[size_t(s.parent)].push_back({s.t0, s.t1});
    }
    for (const Calls& c : calls_) {
        if (c.parent >= 0)
            callS[size_t(c.parent)] += c.seconds;
    }

    std::map<std::string, Summary> by_name;
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, lo = 0.0, hi = -1.0;
        for (const auto& [a, b] : iv) {
            if (a > hi) {
                covered += std::max(0.0, hi - lo);
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        covered += std::max(0.0, hi - lo);
        const double dur = spans_[i].t1 - spans_[i].t0;
        Summary& sum = by_name[spans_[i].name];
        sum.name = spans_[i].name;
        sum.count += 1;
        sum.totalS += dur;
        sum.selfS += dur - covered - callS[i];
    }
    for (const Calls& c : calls_) {
        Summary& sum = by_name[c.name];
        sum.name = c.name;
        sum.count += c.calls;
        sum.totalS += c.seconds;
        sum.selfS += c.seconds;
    }
    std::vector<Summary> out;
    for (auto& [name, sum] : by_name)
        out.push_back(sum);
    return out;
}

void
Tracer::writeJson(std::ostream& out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    char buf[256];
    out << "\"spans\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"id\": %zu, \"name\": \"%s\", "
                      "\"parent\": %lld, \"start_s\": %.9f, "
                      "\"end_s\": %.9f}",
                      i ? "," : "", i, s.name, (long long) s.parent,
                      s.t0, s.t1);
        out << buf;
    }
    out << "\n],\n\"calls\": [";
    for (size_t i = 0; i < calls_.size(); ++i) {
        const Calls& c = calls_[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n  {\"name\": \"%s\", \"parent\": %lld, "
                      "\"calls\": %llu, \"total_s\": %.9f}",
                      i ? "," : "", c.name, (long long) c.parent,
                      (unsigned long long) c.calls, c.seconds);
        out << buf;
    }
    out << "\n]";
}

namespace {
thread_local int64_t tCurrentSpan = -1;
} // namespace

ScopedSpan::ScopedSpan(const char* name) : ScopedSpan(name, tCurrentSpan)
{}

ScopedSpan::ScopedSpan(const char* name, int64_t parent)
    : id_(Tracer::global().begin(name, parent)), saved_(tCurrentSpan)
{
    if (id_ >= 0)
        tCurrentSpan = id_;
}

ScopedSpan::~ScopedSpan()
{
    Tracer::global().end(id_);
    tCurrentSpan = saved_;
}

int64_t
ScopedSpan::current()
{
    return tCurrentSpan;
}

void
SchedTotals::merge(const SchedTotals& other)
{
    decisions += other.decisions;
    liveSum += other.liveSum;
    liveMax = std::max(liveMax, other.liveMax);
    readySum += other.readySum;
    planS += other.planS;
    planUs.merge(other.planUs);
}

namespace {
std::mutex gSchedMu;
SchedTotals gSched;
} // namespace

SchedTotals
SchedTotals::drain()
{
    std::lock_guard<std::mutex> lock(gSchedMu);
    return std::exchange(gSched, SchedTotals{});
}

TimedScheduler::TimedScheduler(
    std::unique_ptr<dream::sim::Scheduler> inner)
    : inner_(std::move(inner))
{}

TimedScheduler::~TimedScheduler()
{
    Tracer::global().addCalls(ScopedSpan::current(), "sched.plan",
                              totals_.decisions, totals_.planS);
    std::lock_guard<std::mutex> lock(gSchedMu);
    gSched.merge(totals_);
}

dream::sim::Plan
TimedScheduler::plan(const dream::sim::SchedulerContext& ctx)
{
    const uint64_t live = ctx.live.size();
    totals_.decisions += 1;
    totals_.liveSum += live;
    totals_.liveMax = std::max(totals_.liveMax, live);
    totals_.readySum += ctx.ready.size();
    const Clock::time_point t0 = Clock::now();
    dream::sim::Plan plan = inner_->plan(ctx);
    const double s = secondsSince(t0);
    totals_.planS += s;
    totals_.planUs.record(s * 1e6);
    return plan;
}

std::unique_ptr<dream::sim::Scheduler>
maybeTimed(std::unique_ptr<dream::sim::Scheduler> sched, bool traced)
{
    if (!traced)
        return sched;
    return std::make_unique<TimedScheduler>(std::move(sched));
}

} // namespace perfbench
