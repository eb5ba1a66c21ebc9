#include "stats/report.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace corona::stats {

TableWriter::TableWriter(std::string title)
    : _title(std::move(title))
{
}

void
TableWriter::setHeader(std::vector<std::string> header)
{
    _header = std::move(header);
}

void
TableWriter::addRow(std::vector<std::string> row)
{
    if (!_header.empty() && row.size() != _header.size())
        throw std::invalid_argument("TableWriter: row/header size mismatch");
    _rows.push_back(std::move(row));
}

void
TableWriter::print(std::ostream &os) const
{
    std::vector<std::size_t> widths;
    auto fit = [&widths](const std::vector<std::string> &row) {
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    if (!_header.empty())
        fit(_header);
    for (const auto &row : _rows)
        fit(row);

    auto emit = [&os, &widths](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << "\n";
    };

    os << "== " << _title << " ==\n";
    if (!_header.empty()) {
        emit(_header);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto &row : _rows)
        emit(row);
}

std::string
formatDouble(double value, int digits)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(digits) << value;
    return oss.str();
}

} // namespace corona::stats
