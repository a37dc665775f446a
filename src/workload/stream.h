/**
 * @file
 * Per-user query stream generation.
 *
 * A user's month of searching mixes three processes (Section 4.2 of the
 * paper): habitual visits to a small personal *hot set* of pairs — the
 * paper found 70% of web visits are revisits to a couple of tens of
 * pages — episodic re-finds of things searched earlier in the month,
 * and fresh draws from the community popularity model. The hot set is
 * itself drawn from community popularity ("facebook", "youtube" are
 * everyone's habits), which is why most repeats land on
 * community-popular pairs and why the combined cache's hit rate (65%)
 * is far below community (55%) + personalization (56.5%).
 */

#ifndef PC_WORKLOAD_STREAM_H
#define PC_WORKLOAD_STREAM_H

#include <vector>

#include "workload/population.h"
#include "workload/searchlog.h"
#include "workload/universe.h"

namespace pc::workload {

/** One generated query event, with process ground truth attached. */
struct StreamEvent
{
    SimTime time = 0;
    PairRef pair{0, 0};
    bool repeatDraw = false; ///< True if generated by the repeat process.
};

/** Simulated month length used throughout the workload. */
inline constexpr SimTime kMonth = 28ll * 24 * 3600 * kSecond;
/** One simulated week. */
inline constexpr SimTime kWeek = 7ll * 24 * 3600 * kSecond;

/**
 * Stateful generator of one user's query events.
 *
 * Events are produced in time order, spread over [start, start+kMonth).
 * The personal history persists across months if the caller keeps
 * generating (call beginMonth() to advance the clock window).
 */
class UserStream
{
  public:
    /**
     * @param universe Community popularity model. Must outlive the stream.
     * @param profile This user's behavioural parameters.
     * @param seed Per-user random seed.
     * @param epoch Trend epoch (month index) the user starts in; the
     *        hot set is drawn from this epoch's popularity.
     */
    UserStream(const QueryUniverse &universe, const UserProfile &profile,
               u64 seed, u32 epoch = 0);

    /**
     * Advance/set the trend epoch. Entering a new epoch churns part of
     * the hot set: some habits shift to the epoch's trending topics
     * (which is how trends show up in community logs at all).
     */
    void setEpoch(u32 epoch);

    /** Current trend epoch. */
    u32 epoch() const { return epoch_; }

    /** Generate the user's next event. */
    StreamEvent next();

    /** Events generated so far. */
    u64 eventsGenerated() const { return eventsGenerated_; }

    /** Begin a new month window starting at `start`. */
    void beginMonth(SimTime start);

    /** The user profile. */
    const UserProfile &profile() const { return profile_; }

    /** Number of distinct pairs in the personal history. */
    std::size_t historySize() const { return history_.size(); }

    /**
     * Generate a full month of events (convenience).
     * @param start Month window start time.
     */
    std::vector<StreamEvent> month(SimTime start);

    /** The user's habitual pairs (popularity-drawn at construction). */
    const std::vector<PairRef> &hotSet() const { return hotSet_; }

  private:
    /** One distinct issued pair; 12 B. */
    struct HistEntry
    {
        PairRef pair;
        u32 count;
    };

    /** Pick a pair from history (rich-get-richer on issue counts). */
    PairRef pickFromHistory();

    /** Record an issued pair into the history: one index probe. */
    void recordIssue(const PairRef &p);

    /** Double the index (or create it) and re-slot every entry. */
    void growIndex();

    /** Slot position of `p` in `slots_` under linear probing: its
     *  entry's slot, or the empty slot where it would go. */
    std::size_t probe(const PairRef &p) const;

    const QueryUniverse &universe_;
    UserProfile profile_;
    Rng rng_;
    /** count^repeatSkew by count, shared by every stream of this skew. */
    const double *repeatWeights_;
    std::vector<PairRef> hotSet_;
    /** Distinct issued pairs in first-issue order. The order is part
     *  of the output: pickFromHistory() walks it to place its pick. */
    std::vector<HistEntry> history_;
    /** Open-addressing index over history_: a power-of-two array of
     *  history position + 1 (0 = empty), load at most 3/4. */
    std::vector<u32> slots_;
    SimTime monthStart_ = 0;
    u32 indexInMonth_ = 0;
    u32 epoch_ = 0;
    u64 eventsGenerated_ = 0;
};

} // namespace pc::workload

#endif // PC_WORKLOAD_STREAM_H
