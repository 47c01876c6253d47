/**
 * @file
 * Relational storage: schemas, rows, pages, tables.
 *
 * The DB2 stand-in stores rows in fixed-capacity pages so that access
 * costs are page-granular and flow through the buffer pool, which is
 * what couples the database to the memory/disk behaviour the paper
 * observes.
 *
 * Page layout: a page keeps its cells in typed columns, not one heap
 * block per row. All Integer cells of the page live in one
 * `std::vector<std::int64_t>` and all Text cells in one
 * `std::vector<std::string>`, each row-major (slot by slot, and within
 * a slot in schema order), next to a live bitmap with one bit per
 * slot. Snapshotting a page (`pageImage`) and restoring a heap
 * (`restoreAll`) therefore copy three flat arrays.
 *
 * `Row` exists only at the table's edge: `insert`, `update` and
 * `setRowAt` unpack a caller's row into the page's columns, `fetch`
 * packs one back up, and `scan` hands its visitor one reused `Row`
 * refilled for each live slot (do not keep a reference to it past the
 * visit). Each value must hold the alternative its column's type
 * names; a mismatch throws `std::bad_variant_access` before the table
 * changes.
 */

#ifndef JASIM_DB_TABLE_H
#define JASIM_DB_TABLE_H

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace jasim {

/** Column value: integer or string. */
using Value = std::variant<std::int64_t, std::string>;

/** Column types. */
enum class ColumnType : std::uint8_t { Integer, Text };

/** One column definition. */
struct Column
{
    std::string name;
    ColumnType type;
};

/** Table schema: ordered columns; column 0 is the primary key. */
struct Schema
{
    std::string table_name;
    std::vector<Column> columns;

    std::optional<std::size_t> columnIndex(const std::string &name) const;
};

/** A row is one value per column. */
using Row = std::vector<Value>;

/** Location of a row: page number and slot within the page. */
struct RowId
{
    std::uint32_t page = 0;
    std::uint16_t slot = 0;

    bool operator==(const RowId &other) const = default;
};

/**
 * Heap-file table: pages of typed cells with tombstone deletion.
 *
 * Recovery support: pages can be snapshotted (`pageImage`) into a
 * stable store and put back wholesale (`restoreAll`), and individual
 * slots can be written or tombstoned at an exact RowId
 * (`setRowAt` / `eraseAt`) so WAL redo/undo replays land where the
 * original operations did.
 */
class Table
{
  public:
    /**
     * One page: its Integer and Text cells, row-major, and one live
     * bit per slot. The slot count is `live.size()`; tombstones and
     * dead placeholders keep their cells. Also the stable-storage
     * image of a page.
     */
    struct PageImage
    {
        std::vector<std::int64_t> ints;
        std::vector<std::string> texts;
        std::vector<bool> live;
    };

    Table(Schema schema, std::uint16_t rows_per_page = 32);

    const Schema &schema() const { return schema_; }

    /** Append a row; returns its location. */
    RowId insert(const Row &row);

    /** Fetch a row (nullopt when the slot is a tombstone). */
    std::optional<Row> fetch(RowId id) const;

    /** Overwrite a row in place; false if the slot is dead/absent. */
    bool update(RowId id, const Row &row);

    /** Tombstone a row; false if already dead/absent. */
    bool erase(RowId id);

    // ---- recovery (physical replay at exact locations) ----

    /** Copy of one page's cells and liveness (empty when absent). */
    PageImage pageImage(std::uint32_t page) const;

    /**
     * Write a row at an exact location, reviving a tombstone or
     * growing pages/slots (dead placeholders) as needed.
     */
    void setRowAt(RowId id, const Row &row);

    /** Tombstone a slot; tolerant of dead/absent (returns false). */
    bool eraseAt(RowId id);

    /** Replace the whole heap with stable page images. */
    void restoreAll(const std::vector<PageImage> &images);

    std::uint32_t pageCount() const
    {
        return static_cast<std::uint32_t>(pages_.size());
    }

    std::uint16_t rowsPerPage() const { return rows_per_page_; }

    /** Live rows (excludes tombstones). */
    std::uint64_t rowCount() const { return live_rows_; }

    /**
     * Visit every live row in page order; the visitor receives
     * (RowId, const Row&) and returns false to stop early. The Row is
     * one buffer refilled for each visit.
     */
    template <typename Visitor>
    void
    scan(Visitor &&visit) const
    {
        Row row(schema_.columns.size());
        const Row &view = row;
        for (std::uint32_t p = 0; p < pages_.size(); ++p) {
            const PageImage &page = pages_[p];
            for (std::uint16_t s = 0; s < page.live.size(); ++s) {
                if (!page.live[s])
                    continue;
                readRow(page, s, row);
                if (!visit(RowId{p, s}, view))
                    return;
            }
        }
    }

  private:
    Schema schema_;
    std::uint16_t rows_per_page_;
    /** Per column: its cell's offset within a slot's ints or texts. */
    std::vector<std::size_t> cell_of_;
    std::size_t int_cols_ = 0;
    std::size_t text_cols_ = 0;
    std::vector<PageImage> pages_;
    std::uint64_t live_rows_ = 0;

    /** Throw std::bad_variant_access unless `row` fits the schema. */
    void checkTypes(const Row &row) const;
    /** Store `row`'s cells into an existing slot. */
    void writeCells(PageImage &page, std::uint16_t slot, const Row &row);
    /** Load a slot's cells into `row` (already sized to the schema). */
    void readRow(const PageImage &page, std::uint16_t slot, Row &row) const;
    /** Whether `id` names a live slot. */
    bool isLive(RowId id) const;
};

} // namespace jasim

#endif // JASIM_DB_TABLE_H
