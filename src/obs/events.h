/**
 * @file
 * The device event stream: one per-device sink of POD records, read by
 * three views.
 *
 * A device states each fact of its pipeline once, as a fixed-size
 * record:
 *
 *  - SpanRecord  (obs/trace.h)  — one component of a query (Table 4's
 *                                 probe, fetch, radio attempt, backoff,
 *                                 render, misc), tiling its latency;
 *  - QueryRecord (obs/trace.h)  — the end of one served query;
 *  - SyncEvent   (obs/causal.h) — one stage of a community sync,
 *                                 including the server-tier stages the
 *                                 cloud service emits into the
 *                                 device's stream;
 *  - DrainRecord (obs/health.h) — one miss-queue drain (no spans, no
 *                                 sync stages).
 *
 * The views are the consumers attached to the stream, each reading the
 * record kinds it has an onEvent() overload for: the Tracer turns spans
 * and query ends into Chrome spans, the FlightRecorder stamps sync
 * stages into causal chains, and the HealthAccountant folds all four
 * into its busy-time ledgers. Every view is offered the same facts, so
 * none can drift from the others.
 *
 * Cost contract: emit() is one inline any-consumer test; detached,
 * nothing else runs. Records are PODs passed by reference, so the
 * stream itself never allocates or draws RNG — only what a consumer
 * keeps (the Tracer's spans) allocates.
 */

#ifndef PC_OBS_EVENTS_H
#define PC_OBS_EVENTS_H

#include "obs/causal.h"
#include "obs/health.h"
#include "obs/trace.h"

namespace pc::obs {

/** One device's event stream: the attached consumers. */
class DeviceEvents
{
  public:
    Tracer *tracer = nullptr;
    u32 track = 0; ///< The tracer track this device's spans land on.
    FlightRecorder *recorder = nullptr;
    health::HealthAccountant *health = nullptr;

    /** True when any consumer is attached. */
    bool any() const
    {
        return tracer != nullptr || recorder != nullptr || health != nullptr;
    }

    /** True while the recorder holds an open sync trace. */
    bool syncOpen() const
    {
        return recorder != nullptr && recorder->traceOpen();
    }

    /** Hand one record to every attached consumer that reads its kind. */
    template <typename Record>
    void emit(const Record &r) const
    {
        if (!any())
            return;
        if constexpr (requires { tracer->onEvent(track, r); })
            if (tracer != nullptr)
                tracer->onEvent(track, r);
        if constexpr (requires { recorder->onEvent(r); })
            if (recorder != nullptr)
                recorder->onEvent(r);
        if (health != nullptr)
            health->onEvent(r);
    }
};

} // namespace pc::obs

#endif // PC_OBS_EVENTS_H
