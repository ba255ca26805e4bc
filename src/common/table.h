/**
 * @file
 * Plain-text table rendering used by every benchmark binary to print
 * paper-style rows.
 */
#ifndef FLEXNERFER_COMMON_TABLE_H_
#define FLEXNERFER_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace flexnerfer {

/** Column-aligned text table with a header row. */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Appends a row; must match the header width. */
    void AddRow(std::vector<std::string> row);

    /** Renders the table with aligned columns and a separator rule. */
    std::string ToString() const;

    std::size_t NumRows() const { return rows_.size(); }

  private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/** Formats a double with the given decimal precision (no trailing noise). */
std::string FormatDouble(double value, int decimals = 2);

}  // namespace flexnerfer

#endif  // FLEXNERFER_COMMON_TABLE_H_
