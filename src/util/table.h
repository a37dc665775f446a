/**
 * @file
 * ASCII table emitter: every bench binary prints the rows of its paper
 * table or figure through it, so output formatting is uniform across
 * the evaluation harness.
 */

#ifndef PC_UTIL_TABLE_H
#define PC_UTIL_TABLE_H

#include <ostream>
#include <string>
#include <vector>

namespace pc {

/**
 * Column-aligned ASCII table with a title, header row and data rows.
 * Numeric cells should be pre-formatted by the caller (strformat).
 */
class AsciiTable
{
  public:
    /** @param title Printed above the table. */
    explicit AsciiTable(std::string title);

    /** Set the header row; defines the column count. */
    void header(std::vector<std::string> cols);

    /** Append one data row; must match the header's column count. */
    void row(std::vector<std::string> cells);

    /** Render with box-drawing to the stream. */
    void print(std::ostream &os) const;

    /** Render to stdout. */
    void print() const;

    /** Number of data rows so far. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace pc

#endif // PC_UTIL_TABLE_H
