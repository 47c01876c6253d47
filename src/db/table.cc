#include "db/table.h"

#include <algorithm>
#include <cassert>

namespace jasim {

std::optional<std::size_t>
Schema::columnIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i].name == name)
            return i;
    }
    return std::nullopt;
}

Table::Table(Schema schema, std::uint16_t rows_per_page)
    : schema_(std::move(schema)), rows_per_page_(rows_per_page)
{
    assert(rows_per_page_ > 0);
    assert(!schema_.columns.empty());
    cell_of_.reserve(schema_.columns.size());
    for (const Column &column : schema_.columns) {
        if (column.type == ColumnType::Integer)
            cell_of_.push_back(int_cols_++);
        else
            cell_of_.push_back(text_cols_++);
    }
}

void
Table::checkTypes(const Row &row) const
{
    assert(row.size() == schema_.columns.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
        const bool integer = schema_.columns[c].type == ColumnType::Integer;
        if (std::holds_alternative<std::int64_t>(row[c]) != integer)
            throw std::bad_variant_access();
    }
}

void
Table::writeCells(PageImage &page, std::uint16_t slot, const Row &row)
{
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (schema_.columns[c].type == ColumnType::Integer)
            page.ints[slot * int_cols_ + cell_of_[c]] =
                std::get<std::int64_t>(row[c]);
        else
            page.texts[slot * text_cols_ + cell_of_[c]] =
                std::get<std::string>(row[c]);
    }
}

void
Table::readRow(const PageImage &page, std::uint16_t slot, Row &row) const
{
    for (std::size_t c = 0; c < row.size(); ++c) {
        if (schema_.columns[c].type == ColumnType::Integer)
            row[c] = page.ints[slot * int_cols_ + cell_of_[c]];
        else
            row[c] = page.texts[slot * text_cols_ + cell_of_[c]];
    }
}

bool
Table::isLive(RowId id) const
{
    return id.page < pages_.size() &&
        id.slot < pages_[id.page].live.size() &&
        pages_[id.page].live[id.slot];
}

RowId
Table::insert(const Row &row)
{
    checkTypes(row);
    if (pages_.empty() || pages_.back().live.size() >= rows_per_page_) {
        PageImage &fresh = pages_.emplace_back();
        fresh.ints.reserve(rows_per_page_ * int_cols_);
        fresh.texts.reserve(rows_per_page_ * text_cols_);
        fresh.live.reserve(rows_per_page_);
    }
    PageImage &page = pages_.back();
    const auto slot = static_cast<std::uint16_t>(page.live.size());
    page.ints.resize(page.ints.size() + int_cols_);
    page.texts.resize(page.texts.size() + text_cols_);
    page.live.push_back(true);
    writeCells(page, slot, row);
    ++live_rows_;
    return RowId{static_cast<std::uint32_t>(pages_.size() - 1), slot};
}

std::optional<Row>
Table::fetch(RowId id) const
{
    if (!isLive(id))
        return std::nullopt;
    Row row(schema_.columns.size());
    readRow(pages_[id.page], id.slot, row);
    return row;
}

bool
Table::update(RowId id, const Row &row)
{
    checkTypes(row);
    if (!isLive(id))
        return false;
    writeCells(pages_[id.page], id.slot, row);
    return true;
}

bool
Table::erase(RowId id)
{
    if (!isLive(id))
        return false;
    pages_[id.page].live[id.slot] = false;
    --live_rows_;
    return true;
}

Table::PageImage
Table::pageImage(std::uint32_t page) const
{
    if (page >= pages_.size())
        return {};
    return pages_[page];
}

void
Table::setRowAt(RowId id, const Row &row)
{
    checkTypes(row);
    if (pages_.size() <= id.page)
        pages_.resize(id.page + 1);
    PageImage &page = pages_[id.page];
    if (page.live.size() <= id.slot) {
        // Dead placeholder slots: never fetched (not live), and they
        // count toward page fullness exactly like tombstones do.
        page.ints.resize((id.slot + 1) * int_cols_);
        page.texts.resize((id.slot + 1) * text_cols_);
        page.live.resize(id.slot + 1, false);
    }
    if (!page.live[id.slot]) {
        page.live[id.slot] = true;
        ++live_rows_;
    }
    writeCells(page, id.slot, row);
}

bool
Table::eraseAt(RowId id)
{
    return erase(id);
}

void
Table::restoreAll(const std::vector<PageImage> &images)
{
    pages_ = images;
    live_rows_ = 0;
    for (const PageImage &page : pages_) {
        assert(page.ints.size() == page.live.size() * int_cols_);
        assert(page.texts.size() == page.live.size() * text_cols_);
        live_rows_ += static_cast<std::uint64_t>(
            std::count(page.live.begin(), page.live.end(), true));
    }
}

} // namespace jasim
