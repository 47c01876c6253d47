#include <gtest/gtest.h>

#include <variant>

#include "db/table.h"

namespace jasim {
namespace {

Schema
customerSchema()
{
    return Schema{"customer",
                  {{"id", ColumnType::Integer},
                   {"name", ColumnType::Text}}};
}

TEST(TableTest, InsertAndFetch)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    const auto row = table.fetch(id);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(std::get<std::int64_t>((*row)[0]), 1);
    EXPECT_EQ(std::get<std::string>((*row)[1]), "a");
}

TEST(TableTest, RowsPackIntoPages)
{
    Table table(customerSchema(), 4);
    for (std::int64_t i = 0; i < 10; ++i)
        table.insert({i, std::string("x")});
    EXPECT_EQ(table.pageCount(), 3u); // 4+4+2
    EXPECT_EQ(table.rowCount(), 10u);
}

TEST(TableTest, UpdateInPlace)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    EXPECT_TRUE(table.update(id, {std::int64_t(1), std::string("b")}));
    EXPECT_EQ(std::get<std::string>((*table.fetch(id))[1]), "b");
}

TEST(TableTest, EraseTombstones)
{
    Table table(customerSchema(), 4);
    const RowId id = table.insert({std::int64_t(1), std::string("a")});
    EXPECT_TRUE(table.erase(id));
    EXPECT_FALSE(table.fetch(id).has_value());
    EXPECT_FALSE(table.erase(id));
    EXPECT_FALSE(table.update(id, {std::int64_t(1), std::string("b")}));
    EXPECT_EQ(table.rowCount(), 0u);
}

TEST(TableTest, InvalidRowIdSafe)
{
    Table table(customerSchema(), 4);
    EXPECT_FALSE(table.fetch(RowId{99, 0}).has_value());
    EXPECT_FALSE(table.erase(RowId{0, 7}));
}

TEST(TableTest, ScanVisitsLiveRowsInOrder)
{
    Table table(customerSchema(), 4);
    std::vector<RowId> ids;
    for (std::int64_t i = 0; i < 9; ++i)
        ids.push_back(table.insert({i, std::string("x")}));
    table.erase(ids[4]);
    std::vector<std::int64_t> seen;
    table.scan([&](RowId, const Row &row) {
        seen.push_back(std::get<std::int64_t>(row[0]));
        return true;
    });
    EXPECT_EQ(seen.size(), 8u);
    EXPECT_EQ(seen.front(), 0);
    EXPECT_EQ(seen.back(), 8);
}

TEST(TableTest, ScanEarlyStop)
{
    Table table(customerSchema(), 4);
    for (std::int64_t i = 0; i < 9; ++i)
        table.insert({i, std::string("x")});
    int visits = 0;
    table.scan([&](RowId, const Row &) { return ++visits < 3; });
    EXPECT_EQ(visits, 3);
}

/** Integer and Text columns interleaved, so each page keeps both. */
Schema
mixedSchema()
{
    return Schema{"vehicle",
                  {{"id", ColumnType::Integer},
                   {"model", ColumnType::Text},
                   {"price", ColumnType::Integer},
                   {"note", ColumnType::Text}}};
}

Row
mixedRow(std::int64_t i)
{
    return {i, std::string("model-") + std::to_string(i), i * 100,
            std::string(i % 2 == 0 ? "a note long enough to leave SSO"
                                   : "")};
}

std::vector<Row>
scanAll(const Table &table)
{
    std::vector<Row> rows;
    table.scan([&](RowId, const Row &row) {
        rows.push_back(row);
        return true;
    });
    return rows;
}

TEST(TableTest, MixedRowsRoundTrip)
{
    Table table(mixedSchema(), 3);
    std::vector<RowId> ids;
    for (std::int64_t i = 0; i < 7; ++i)
        ids.push_back(table.insert(mixedRow(i)));
    for (std::int64_t i = 0; i < 7; ++i)
        EXPECT_EQ(*table.fetch(ids[i]), mixedRow(i));

    const Row changed{std::int64_t(4), std::string("renamed"),
                      std::int64_t(-1), std::string("x")};
    EXPECT_TRUE(table.update(ids[4], changed));
    EXPECT_EQ(*table.fetch(ids[4]), changed);
    EXPECT_EQ(*table.fetch(ids[3]), mixedRow(3));
    EXPECT_EQ(*table.fetch(ids[5]), mixedRow(5));
}

TEST(TableTest, ScanRefillsTextForEachRow)
{
    Table table(mixedSchema(), 3);
    for (std::int64_t i = 0; i < 7; ++i)
        table.insert(mixedRow(i));
    // One reused Row crosses pages and alternates long, short and
    // empty strings: every visit must see exactly its own cells.
    const std::vector<Row> seen = scanAll(table);
    ASSERT_EQ(seen.size(), 7u);
    for (std::int64_t i = 0; i < 7; ++i)
        EXPECT_EQ(seen[i], mixedRow(i));
}

TEST(TableTest, PageImagesRestoreValuesAndRowCount)
{
    Table table(mixedSchema(), 3);
    std::vector<RowId> ids;
    for (std::int64_t i = 0; i < 8; ++i)
        ids.push_back(table.insert(mixedRow(i)));
    table.erase(ids[1]);
    std::vector<Table::PageImage> images;
    for (std::uint32_t p = 0; p < table.pageCount(); ++p)
        images.push_back(table.pageImage(p));
    EXPECT_TRUE(table.pageImage(table.pageCount()).live.empty());

    // Diverge from the snapshot, then put it back.
    table.update(ids[0], mixedRow(50));
    table.erase(ids[2]);
    table.insert(mixedRow(60));
    table.restoreAll(images);

    EXPECT_EQ(table.pageCount(), 3u);
    EXPECT_EQ(table.rowCount(), 7u);
    EXPECT_FALSE(table.fetch(ids[1]).has_value());
    for (std::int64_t i = 0; i < 8; ++i) {
        if (i != 1) {
            EXPECT_EQ(*table.fetch(ids[i]), mixedRow(i));
        }
    }
    EXPECT_EQ(scanAll(table).size(), 7u);
}

TEST(TableTest, SetRowAtPastTheEndLeavesDeadPlaceholders)
{
    Table table(mixedSchema(), 4);
    table.insert(mixedRow(0));
    table.setRowAt(RowId{1, 2}, mixedRow(9));

    EXPECT_EQ(table.pageCount(), 2u);
    EXPECT_EQ(table.rowCount(), 2u);
    EXPECT_EQ(*table.fetch(RowId{1, 2}), mixedRow(9));
    EXPECT_FALSE(table.fetch(RowId{1, 0}).has_value());
    EXPECT_FALSE(table.fetch(RowId{1, 1}).has_value());
    EXPECT_FALSE(table.update(RowId{1, 0}, mixedRow(1)));
    const std::vector<Row> seen = scanAll(table);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1], mixedRow(9));

    // The placeholders count toward fullness: page 1 takes one more
    // row (slot 3), and the row after that opens page 2.
    EXPECT_EQ(table.insert(mixedRow(1)), (RowId{1, 3}));
    EXPECT_EQ(table.insert(mixedRow(2)), (RowId{2, 0}));
    EXPECT_EQ(table.rowCount(), 4u);
}

TEST(TableTest, TypeMismatchThrowsAndLeavesTableUnchanged)
{
    Table table(mixedSchema(), 4);
    const RowId id = table.insert(mixedRow(0));
    const Row text_in_integer{std::string("oops"), std::string("m"),
                              std::int64_t(1), std::string("n")};
    const Row integer_in_text{std::int64_t(1), std::int64_t(2),
                              std::int64_t(3), std::string("n")};
    EXPECT_THROW(table.insert(text_in_integer), std::bad_variant_access);
    EXPECT_THROW(table.update(id, integer_in_text),
                 std::bad_variant_access);
    EXPECT_THROW(table.setRowAt(RowId{0, 1}, integer_in_text),
                 std::bad_variant_access);
    EXPECT_EQ(table.rowCount(), 1u);
    EXPECT_EQ(table.pageCount(), 1u);
    EXPECT_EQ(*table.fetch(id), mixedRow(0));
    EXPECT_FALSE(table.fetch(RowId{0, 1}).has_value());
}

TEST(SchemaTest, ColumnIndexLookup)
{
    const Schema schema = customerSchema();
    EXPECT_EQ(schema.columnIndex("name"), 1u);
    EXPECT_FALSE(schema.columnIndex("missing").has_value());
}

} // namespace
} // namespace jasim
