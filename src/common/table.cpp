#include "common/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace flexnerfer {

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
    FLEX_CHECK(!header_.empty());
}

void
Table::AddRow(std::vector<std::string> row)
{
    FLEX_CHECK_MSG(row.size() == header_.size(),
                   "row width " << row.size() << " != header width "
                                << header_.size());
    rows_.push_back(std::move(row));
}

std::string
Table::ToString() const
{
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
        widths[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << std::left << std::setw(static_cast<int>(widths[c]) + 2)
                << row[c];
        }
        out << "\n";
    };
    emit_row(header_);
    std::size_t rule = 0;
    for (std::size_t w : widths) rule += w + 2;
    out << std::string(rule, '-') << "\n";
    for (const auto& row : rows_) emit_row(row);
    return out.str();
}

std::string
FormatDouble(double value, int decimals)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(decimals) << value;
    return out.str();
}

}  // namespace flexnerfer
