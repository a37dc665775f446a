/**
 * @file
 * Search log records and containers — the synthetic stand-in for the
 * paper's m.bing.com mobile search logs.
 *
 * Each record is one successful click-through: the query string the user
 * submitted and the search result they selected (the paper's logs
 * contain exactly these two fields plus nothing personal). Records
 * reference the QueryUniverse by id; strings are materialized on demand.
 */

#ifndef PC_WORKLOAD_SEARCHLOG_H
#define PC_WORKLOAD_SEARCHLOG_H

#include <vector>

#include "workload/universe.h"

namespace pc::workload {

/**
 * One click-through event in the log, packed to 24 B: a community
 * month holds millions of them and the time sort moves every one.
 */
struct LogRecord
{
    SimTime time = 0;      ///< Timestamp within the log window.
    PairRef pair{0, 0};    ///< (query, clicked result).
    u32 user = 0;          ///< Anonymized user id.
    DeviceType device = DeviceType::Smartphone;

    LogRecord() = default;

    /** Positional form {user, time, pair, device}; `user_id` must fit
     *  in u32 (LogGenerator checks its population). */
    LogRecord(u64 user_id, SimTime t, PairRef p, DeviceType d)
        : time(t), pair(p), user(u32(user_id)), device(d)
    {
    }
};
static_assert(sizeof(LogRecord) == 24, "LogRecord must stay 24 bytes");

/**
 * A flat, time-ordered-per-user log plus a reference to the universe
 * that interprets its ids.
 */
class SearchLog
{
  public:
    explicit SearchLog(const QueryUniverse &universe)
        : universe_(&universe)
    {
    }

    /** Append one record. */
    void add(const LogRecord &rec) { records_.push_back(rec); }

    /** All records. */
    const std::vector<LogRecord> &records() const { return records_; }

    /** Record count. */
    std::size_t size() const { return records_.size(); }

    /** The universe interpreting query/result ids. */
    const QueryUniverse &universe() const { return *universe_; }

    /** Reserve capacity. */
    void reserve(std::size_t n) { records_.reserve(n); }

    /** Sort records by time (global replay order). */
    void sortByTime();

  private:
    const QueryUniverse *universe_;
    std::vector<LogRecord> records_;
};

} // namespace pc::workload

#endif // PC_WORKLOAD_SEARCHLOG_H
