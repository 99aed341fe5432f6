/**
 * @file
 * The benchmark's own instrumentation: spans recorded around the
 * calls it makes into each library layer, strided timing samples, and
 * a transparent sim::Scheduler decorator that times plan() and
 * records the size of each decision's live and ready sets.
 *
 * Everything here observes from outside the library. Spans and calls
 * are kept in memory and written out once, when the run ends.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/scheduler.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** CPU time of the calling thread, in ms. Unlike wall time it does
 *  not count the time the thread waits while the host runs others. */
double threadCpuMs();

/** Exact quantile of @p v (linear interpolation between order
 *  statistics); 0 for an empty sample. */
double quantile(std::vector<double> v, double q);

/** The median of @p v; 0 for an empty sample. */
double median(std::vector<double> v);

/**
 * Every stride-th value of a stream, kept for exact quantiles. A
 * Figure 7 pass makes millions of decisions; a fixed stride keeps
 * memory bounded and the choice of samples deterministic, while each
 * kept value is a measurement with all its digits.
 */
class Samples {
public:
    explicit Samples(uint64_t stride = 1) : stride_(stride) {}

    void record(double v)
    {
        if (seen_++ % stride_ == 0)
            values_.push_back(v);
    }
    void merge(const Samples& other)
    {
        values_.insert(values_.end(), other.values_.begin(),
                       other.values_.end());
        seen_ += other.seen_;
    }
    /** Exact quantile of the kept values; 0 if none. */
    double quantile(double q) const
    {
        return perfbench::quantile(values_, q);
    }

private:
    uint64_t stride_;
    uint64_t seen_ = 0;
    std::vector<double> values_;
};

/**
 * In-memory span recorder. A span has a name, a start, an end and
 * the span that caused it. Calls too short and too many to record one
 * by one (plan(), offer(), advanceTo()) are added to their parent
 * span as an aggregate: a call count and their summed duration.
 * Thread-safe; disabled (every call a no-op) unless enabled.
 */
class Tracer {
public:
    static Tracer& global();

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span; returns its id, or -1 while disabled. */
    int64_t begin(const char* name, int64_t parent);
    void end(int64_t id);
    /** Add @p calls calls named @p name taking @p seconds in total
     *  under span @p parent. */
    void addCalls(int64_t parent, const char* name, uint64_t calls,
                  double seconds);

    /** Per span name: occurrences, summed duration and summed self
     *  time (duration minus the part of it that child spans cover,
     *  minus aggregated child calls). */
    struct Summary {
        std::string name;
        uint64_t count = 0;
        double totalS = 0.0;
        double selfS = 0.0;
    };
    std::vector<Summary> summarize() const;

    /** Every span and aggregated call, as JSON arrays. */
    void writeJson(std::ostream& out) const;

private:
    struct Span {
        const char* name;
        int64_t parent;
        double t0;
        double t1;
    };
    struct Calls {
        const char* name;
        int64_t parent;
        uint64_t calls;
        double seconds;
    };

    bool enabled_ = false;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<Calls> calls_;
};

/**
 * A span for the lifetime of the object. It becomes the calling
 * thread's current span, the default parent of spans and calls opened
 * below it on the same thread.
 */
class ScopedSpan {
public:
    explicit ScopedSpan(const char* name);
    ScopedSpan(const char* name, int64_t parent);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    int64_t id() const { return id_; }
    /** The calling thread's innermost open span (-1 if none). */
    static int64_t current();

private:
    int64_t id_;
    int64_t saved_;
};

/** What the scheduler decorators of one pass observed. */
struct SchedTotals {
    uint64_t decisions = 0;
    uint64_t liveSum = 0;
    uint64_t liveMax = 0;
    uint64_t readySum = 0;
    double planS = 0.0;
    /** Every 32nd plan() time. */
    Samples planUs{32};

    void merge(const SchedTotals& other);
    /** Take the totals every decorator destroyed so far flushed, and
     *  start again from zero. */
    static SchedTotals drain();
};

/**
 * Transparent decorator over a stock scheduler: forwards name(),
 * reset() and plan() unchanged, and times each plan() call. When it
 * is destroyed it flushes its totals (SchedTotals::drain) and adds
 * its plan() time to the thread's current span.
 */
class TimedScheduler : public dream::sim::Scheduler {
public:
    explicit TimedScheduler(std::unique_ptr<dream::sim::Scheduler> inner);
    ~TimedScheduler() override;

    std::string name() const override { return inner_->name(); }
    void reset(const dream::sim::SchedulerContext& ctx) override
    {
        inner_->reset(ctx);
    }
    dream::sim::Plan plan(const dream::sim::SchedulerContext& ctx) override;

private:
    std::unique_ptr<dream::sim::Scheduler> inner_;
    SchedTotals totals_;
};

/** Wrap @p sched in a TimedScheduler when @p traced. */
std::unique_ptr<dream::sim::Scheduler>
maybeTimed(std::unique_ptr<dream::sim::Scheduler> sched, bool traced);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
