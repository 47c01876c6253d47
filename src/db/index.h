/**
 * @file
 * Hash indexes over integer keys.
 *
 * jas2004's operations are dominated by point lookups on surrogate
 * keys; a unique hash index (primary key) and a non-unique variant
 * (foreign keys) cover the query engine's needs.
 */

#ifndef JASIM_DB_INDEX_H
#define JASIM_DB_INDEX_H

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "db/table.h"

namespace jasim {

/** Unique integer-key -> RowId index. */
class UniqueIndex
{
  public:
    /** Insert; false when the key already exists. */
    bool insert(std::int64_t key, RowId id);

    std::optional<RowId> find(std::int64_t key) const;

    bool erase(std::int64_t key);

    /** Make room for `keys` keys without rehashing. */
    void reserve(std::size_t keys) { map_.reserve(keys); }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<std::int64_t, RowId> map_;
};

/** Non-unique integer-key -> RowIds index. */
class MultiIndex
{
  public:
    void insert(std::int64_t key, RowId id);

    /** All rows with the key (empty vector when none). */
    std::vector<RowId> find(std::int64_t key) const;

    /** Remove one (key, id) pairing; false when absent. */
    bool erase(std::int64_t key, RowId id);

    std::size_t size() const { return entries_; }

  private:
    std::unordered_map<std::int64_t, std::vector<RowId>> map_;
    std::size_t entries_ = 0;
};

} // namespace jasim

#endif // JASIM_DB_INDEX_H
