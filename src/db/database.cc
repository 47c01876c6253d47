#include "db/database.h"

#include <cassert>
#include <unordered_set>

namespace jasim {

void
DbCost::add(const DbCost &other)
{
    pages_hit += other.pages_hit;
    pages_read += other.pages_read;
    writebacks += other.writebacks;
    rows += other.rows;
    log_bytes_forced += other.log_bytes_forced;
    cpu_us += other.cpu_us;
}

Database::Database(const DbConfig &config)
    : config_(config), pool_(config.buffer_pool_pages)
{
}

std::uint32_t
Database::createTable(Schema schema)
{
    assert(!schema.columns.empty());
    assert(schema.columns[0].type == ColumnType::Integer &&
           "column 0 must be an integer primary key");
    const std::uint32_t id = static_cast<std::uint32_t>(tables_.size());
    table_names_[schema.table_name] = id;
    TableState ts;
    ts.table = std::make_unique<Table>(std::move(schema),
                                       config_.rows_per_page);
    tables_.push_back(std::move(ts));
    if (recovery_on_)
        stable_.resize(tables_.size());
    return id;
}

void
Database::createSecondaryIndex(std::uint32_t table_id,
                               const std::string &column)
{
    TableState &ts = state(table_id);
    const auto col = ts.table->schema().columnIndex(column);
    assert(col && "unknown column");
    SecondaryIndex &secondary = ts.secondary[column];
    secondary.column = *col;
    ts.table->scan([&](RowId id, const Row &row) {
        secondary.index.insert(std::get<std::int64_t>(row[*col]), id);
        return true;
    });
}

void
Database::reserveRows(std::uint32_t table_id, std::size_t rows)
{
    state(table_id).primary.reserve(rows);
}

std::optional<std::uint32_t>
Database::tableId(const std::string &name) const
{
    const auto it = table_names_.find(name);
    if (it == table_names_.end())
        return std::nullopt;
    return it->second;
}

const Table &
Database::table(std::uint32_t table_id) const
{
    return *state(table_id).table;
}

Database::TableState &
Database::state(std::uint32_t table_id)
{
    assert(table_id < tables_.size());
    return tables_[table_id];
}

const Database::TableState &
Database::state(std::uint32_t table_id) const
{
    assert(table_id < tables_.size());
    return tables_[table_id];
}

void
Database::touchPage(std::uint32_t table_id, std::uint32_t page,
                    bool dirty, DbCost &cost,
                    std::uint64_t recovery_lsn)
{
    const PinResult pin =
        pool_.pin(PageKey{table_id, page}, dirty, recovery_lsn);
    if (pin.hit)
        ++cost.pages_hit;
    else
        ++cost.pages_read;
    if (pin.writeback)
        ++cost.writebacks;
    cost.cpu_us += pin.hit ? 0.3 : 1.2;
    if (recovery_on_ && pin.evicted && pin.writeback)
        flushPageToStable(pin.victim, &cost);
}

std::uint64_t
Database::logMutation(TxnId txn, WalRecordType type,
                      std::uint32_t payload_bytes,
                      std::uint32_t table_id, RowId rid,
                      std::optional<Row> redo, std::optional<Row> undo)
{
    if (!recovery_on_) {
        wal_.append(txn, type, payload_bytes);
        return 0;
    }
    const std::uint64_t lsn =
        wal_.appendLogical(txn, type, payload_bytes, table_id, rid,
                           std::move(redo), std::move(undo));
    page_lsn_[PageKey{table_id, rid.page}] = lsn;
    return lsn;
}

void
Database::flushPageToStable(PageKey key, DbCost *cost)
{
    const auto it = page_lsn_.find(key);
    const std::uint64_t lsn = it == page_lsn_.end() ? 0 : it->second;
    if (lsn > wal_.issuedLsn()) {
        // WAL protocol: the log describing the page must reach stable
        // storage before the page image does.
        const std::uint64_t forced = wal_.force();
        if (cost)
            cost->log_bytes_forced += forced;
    }
    if (stable_.size() <= key.table)
        stable_.resize(key.table + 1);
    auto &images = stable_[key.table];
    if (images.size() <= key.page)
        images.resize(key.page + 1);
    images[key.page] = tables_[key.table].table->pageImage(key.page);
    if (lsn != 0) {
        stable_page_lsn_[key] = lsn;
        wal_.protect(lsn);
    }
}

std::uint32_t
Database::rowBytes(const Row &row)
{
    std::uint32_t bytes = 0;
    for (const auto &value : row) {
        if (std::holds_alternative<std::int64_t>(value))
            bytes += 8;
        else
            bytes += static_cast<std::uint32_t>(
                std::get<std::string>(value).size()) + 4;
    }
    return bytes;
}

std::int64_t
Database::keyOf(const Row &row)
{
    return std::get<std::int64_t>(row[0]);
}

void
Database::indexRemove(TableState &ts, RowId id, const Row &row)
{
    for (auto &[name, secondary] : ts.secondary) {
        (void)name;
        secondary.index.erase(
            std::get<std::int64_t>(row[secondary.column]), id);
    }
}

void
Database::indexAdd(TableState &ts, RowId id, const Row &row)
{
    for (auto &[name, secondary] : ts.secondary) {
        (void)name;
        secondary.index.insert(
            std::get<std::int64_t>(row[secondary.column]), id);
    }
}

TxnId
Database::begin()
{
    const TxnId txn = next_txn_++;
    TxnState &st = active_[txn];
    const std::uint64_t lsn = wal_.append(txn, WalRecordType::Begin, 0);
    if (recovery_on_)
        st.first_lsn = lsn;
    return txn;
}

DbCost
Database::commit(TxnId txn)
{
    DbCost cost;
    const auto it = active_.find(txn);
    assert(it != active_.end() && "commit of unknown transaction");
    const std::uint64_t lsn = wal_.append(txn, WalRecordType::Commit, 0);
    if (recovery_on_)
        last_commit_lsn_ = lsn;
    cost.log_bytes_forced = wal_.force();
    cost.cpu_us += 4.0;
    active_.erase(it);
    return cost;
}

DbCost
Database::abort(TxnId txn)
{
    DbCost cost;
    const auto it = active_.find(txn);
    assert(it != active_.end() && "abort of unknown transaction");
    // Undo in reverse order. In recovery mode every undo step logs a
    // compensation record (redo-only), so a crash after the abort
    // replays the rollback instead of resurrecting the transaction.
    for (auto undo = it->second.undo.rbegin();
         undo != it->second.undo.rend(); ++undo) {
        TableState &ts = state(undo->table_id);
        const auto current = ts.table->fetch(undo->row_id);
        if (current) {
            indexRemove(ts, undo->row_id, *current);
        }
        if (undo->before) {
            if (current)
                ts.table->update(undo->row_id, *undo->before);
            else {
                // Row was erased in the txn; resurrecting tombstones
                // is not supported by Table, so re-insert.
                const RowId id = ts.table->insert(*undo->before);
                ts.primary.erase(keyOf(*undo->before));
                ts.primary.insert(keyOf(*undo->before), id);
                indexAdd(ts, id, *undo->before);
                std::uint64_t clr = 0;
                if (recovery_on_) {
                    clr = logMutation(txn, WalRecordType::Insert,
                                      rowBytes(*undo->before),
                                      undo->table_id, id,
                                      *undo->before, std::nullopt);
                }
                touchPage(undo->table_id, id.page, true, cost, clr);
                continue;
            }
            indexAdd(ts, undo->row_id, *undo->before);
        } else if (current) {
            // Undo an insert.
            ts.primary.erase(keyOf(*current));
            ts.table->erase(undo->row_id);
        }
        std::uint64_t clr = 0;
        if (recovery_on_) {
            clr = undo->before
                ? logMutation(txn, WalRecordType::Update,
                              rowBytes(*undo->before), undo->table_id,
                              undo->row_id, *undo->before, std::nullopt)
                : logMutation(txn, WalRecordType::Erase,
                              current ? rowBytes(*current) : 0,
                              undo->table_id, undo->row_id,
                              std::nullopt, std::nullopt);
        }
        touchPage(undo->table_id, undo->row_id.page, true, cost, clr);
        ++cost.rows;
    }
    wal_.append(txn, WalRecordType::Abort, 0);
    cost.log_bytes_forced = wal_.force();
    cost.cpu_us += 6.0;
    active_.erase(it);
    return cost;
}

DbCost
Database::insert(TxnId txn, std::uint32_t table_id, Row row)
{
    DbCost cost;
    TableState &ts = state(table_id);
    const RowId id = ts.table->insert(row);
    const bool unique = ts.primary.insert(keyOf(row), id);
    assert(unique && "duplicate primary key");
    (void)unique;
    indexAdd(ts, id, row);

    // The caller's row is what the table now holds: index from it and
    // hand it to the WAL redo image, which is kept only when armed.
    const std::uint32_t bytes = rowBytes(row);
    std::optional<Row> redo;
    if (recovery_on_)
        redo = std::move(row);
    const std::uint64_t lsn =
        logMutation(txn, WalRecordType::Insert, bytes, table_id, id,
                    std::move(redo), std::nullopt);
    touchPage(table_id, id.page, true, cost, lsn);
    active_[txn].undo.push_back(UndoEntry{table_id, id, std::nullopt});
    ++cost.rows;
    cost.cpu_us += 2.0;
    return cost;
}

std::optional<Row>
Database::pointSelect(std::uint32_t table_id, std::int64_t key,
                      DbCost &cost)
{
    TableState &ts = state(table_id);
    cost.cpu_us += 0.8; // index probe
    const auto id = ts.primary.find(key);
    if (!id)
        return std::nullopt;
    touchPage(table_id, id->page, false, cost);
    ++cost.rows;
    return ts.table->fetch(*id);
}

DbCost
Database::updateByKey(TxnId txn, std::uint32_t table_id,
                      std::int64_t key, Row row)
{
    DbCost cost;
    TableState &ts = state(table_id);
    const auto id = ts.primary.find(key);
    if (!id) {
        cost.cpu_us += 0.8;
        return cost;
    }
    std::optional<Row> before = ts.table->fetch(*id);
    assert(before);
    indexRemove(ts, *id, *before);
    ts.table->update(*id, row);
    indexAdd(ts, *id, row);

    const std::uint32_t bytes = rowBytes(row);
    std::optional<Row> redo;
    if (recovery_on_)
        redo = std::move(row);
    const std::uint64_t lsn =
        logMutation(txn, WalRecordType::Update, bytes, table_id, *id,
                    std::move(redo),
                    recovery_on_ ? before : std::nullopt);
    touchPage(table_id, id->page, true, cost, lsn);
    active_[txn].undo.push_back(
        UndoEntry{table_id, *id, std::move(before)});
    ++cost.rows;
    cost.cpu_us += 2.5;
    return cost;
}

DbCost
Database::eraseByKey(TxnId txn, std::uint32_t table_id, std::int64_t key)
{
    DbCost cost;
    TableState &ts = state(table_id);
    const auto id = ts.primary.find(key);
    if (!id) {
        cost.cpu_us += 0.8;
        return cost;
    }
    std::optional<Row> before = ts.table->fetch(*id);
    assert(before);
    indexRemove(ts, *id, *before);
    ts.primary.erase(key);
    ts.table->erase(*id);

    const std::uint64_t lsn =
        logMutation(txn, WalRecordType::Erase, rowBytes(*before),
                    table_id, *id, std::nullopt,
                    recovery_on_ ? before : std::nullopt);
    touchPage(table_id, id->page, true, cost, lsn);
    active_[txn].undo.push_back(
        UndoEntry{table_id, *id, std::move(before)});
    ++cost.rows;
    cost.cpu_us += 2.0;
    return cost;
}

std::vector<Row>
Database::selectBySecondary(std::uint32_t table_id,
                            const std::string &column, std::int64_t key,
                            DbCost &cost)
{
    TableState &ts = state(table_id);
    const auto index = ts.secondary.find(column);
    assert(index != ts.secondary.end() && "no such secondary index");
    cost.cpu_us += 1.0;
    std::vector<Row> rows;
    for (const RowId id : index->second.index.find(key)) {
        touchPage(table_id, id.page, false, cost);
        const auto row = ts.table->fetch(id);
        if (row) {
            rows.push_back(*row);
            ++cost.rows;
        }
    }
    return rows;
}

std::vector<Row>
Database::scanWhere(std::uint32_t table_id, std::size_t column,
                    std::int64_t value, DbCost &cost)
{
    TableState &ts = state(table_id);
    std::vector<Row> rows;
    std::uint32_t last_page = ~0u;
    ts.table->scan([&](RowId id, const Row &row) {
        if (id.page != last_page) {
            touchPage(table_id, id.page, false, cost);
            last_page = id.page;
        }
        cost.cpu_us += 0.05;
        if (std::get<std::int64_t>(row[column]) == value) {
            rows.push_back(row);
            ++cost.rows;
        }
        return true;
    });
    return rows;
}

// ---- crash recovery -------------------------------------------------

void
Database::enableRecovery()
{
    assert(!recovery_on_ && "recovery already enabled");
    assert(active_.empty() && "enableRecovery with a txn in flight");
    // The populated state is the recovery baseline: force what is
    // pending, snapshot every table into the stable store, and start
    // retaining logical records from here.
    wal_.force();
    wal_.setRetention(true);
    wal_.confirmDurable(wal_.lastLsn());

    stable_.clear();
    stable_.resize(tables_.size());
    for (std::size_t t = 0; t < tables_.size(); ++t) {
        const Table &tbl = *tables_[t].table;
        stable_[t].reserve(tbl.pageCount());
        for (std::uint32_t p = 0; p < tbl.pageCount(); ++p)
            stable_[t].push_back(tbl.pageImage(p));
    }
    page_lsn_.clear();
    stable_page_lsn_.clear();
    pool_.markAllClean();
    recovery_on_ = true;
}

void
Database::confirmWalDurable(std::uint64_t lsn)
{
    wal_.confirmDurable(lsn);
}

CheckpointStats
Database::checkpoint()
{
    assert(recovery_on_ && !crashed_);
    CheckpointStats s;
    s.begin_lsn = wal_.append(0, WalRecordType::BeginCheckpoint, 8);
    // The end record carries the dirty-page and active-txn tables.
    const BufferPool::DirtyPageTable dirty = pool_.dirtyPages();
    s.end_lsn = wal_.append(
        0, WalRecordType::EndCheckpoint,
        static_cast<std::uint32_t>(8 + 12 * dirty.size() +
                                   12 * active_.size()));
    s.log_bytes_forced = wal_.force();
    for (const auto &[key, rec_lsn] : dirty) {
        (void)rec_lsn;
        flushPageToStable(key, nullptr);
        pool_.markClean(key);
        ++s.pages_flushed;
    }
    // Redo point: with the dirty-page table drained, nothing below
    // the oldest live transaction's first record (capped by this
    // checkpoint) is ever replayed again.
    std::uint64_t redo_point = s.end_lsn;
    for (const auto &[txn, st] : active_) {
        (void)txn;
        if (st.first_lsn != 0 && st.first_lsn < redo_point)
            redo_point = st.first_lsn;
    }
    std::uint64_t bound = redo_point - 1;
    if (floor_on_) {
        // Replication: never truncate what a replica still needs,
        // and keep every record of a transaction spanning the floor
        // (a failover at the floor must be able to undo it from its
        // first record).
        bound = std::min(bound, floor_);
        std::unordered_map<TxnId, std::uint64_t> first_lsn;
        for (const WalRecord &rec : wal_.records()) {
            if (rec.txn == 0)
                continue;
            first_lsn.emplace(rec.txn, rec.lsn);
            if (rec.lsn > floor_)
                bound = std::min(bound, first_lsn[rec.txn] - 1);
        }
    }
    const std::size_t before = wal_.records().size();
    wal_.truncate(bound);
    s.truncated_records = before - wal_.records().size();
    return s;
}

CrashStats
Database::crash(bool torn)
{
    assert(recovery_on_ && !crashed_);
    CrashStats s;
    const WalCrashLoss loss = wal_.crashDiscard(torn);
    s.wal_records_lost = loss.unforced_records;
    s.torn_records = loss.torn_records;
    s.dirty_pages_discarded = pool_.dirtyPages().size();

    if (stable_.size() < tables_.size())
        stable_.resize(tables_.size());
    for (std::size_t t = 0; t < tables_.size(); ++t)
        tables_[t].table->restoreAll(stable_[t]);
    page_lsn_ = stable_page_lsn_;
    pool_.clear();
    active_.clear();
    crashed_ = true;
    return s;
}

RecoveryStats
Database::recover()
{
    assert(crashed_ && "recover without a crash");
    RecoveryStats s;
    s.replay_bytes = wal_.retainedBytes();

    // Analysis: a transaction with a terminal record is a winner
    // (Abort wrote compensation records, so its retained log already
    // describes the rollback). Everything else is a loser.
    std::unordered_set<TxnId> seen;
    std::unordered_set<TxnId> winners;
    for (const WalRecord &rec : wal_.records()) {
        if (rec.txn == 0)
            continue; // checkpoint bookkeeping
        seen.insert(rec.txn);
        if (rec.type == WalRecordType::Commit ||
            rec.type == WalRecordType::Abort)
            winners.insert(rec.txn);
    }
    s.winner_txns = winners.size();
    s.loser_txns = seen.size() - winners.size();

    const auto logical = [](const WalRecord &rec) {
        return rec.type == WalRecordType::Insert ||
            rec.type == WalRecordType::Update ||
            rec.type == WalRecordType::Erase;
    };

    // Redo: repeat history. Every retained record replays unless the
    // stable page image already carries it (pageLSN guard).
    std::unordered_set<PageKey, PageKeyHash> touched;
    for (const WalRecord &rec : wal_.records()) {
        if (!logical(rec))
            continue;
        ++s.redo_records;
        const PageKey key{rec.table, rec.rid.page};
        std::uint64_t &plsn = page_lsn_[key];
        if (rec.lsn <= plsn)
            continue;
        Table &tbl = *tables_[rec.table].table;
        if (rec.type == WalRecordType::Erase)
            tbl.eraseAt(rec.rid);
        else if (rec.redo)
            tbl.setRowAt(rec.rid, *rec.redo);
        plsn = rec.lsn;
        touched.insert(key);
        ++s.redo_applied;
    }

    // Undo losers in reverse LSN order from their before-images.
    const std::vector<WalRecord> &recs = wal_.records();
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        const WalRecord &rec = *it;
        if (!logical(rec) || rec.txn == 0 ||
            winners.count(rec.txn) != 0)
            continue;
        ++s.undo_records;
        Table &tbl = *tables_[rec.table].table;
        if (rec.type == WalRecordType::Insert)
            tbl.eraseAt(rec.rid);
        else if (rec.undo)
            tbl.setRowAt(rec.rid, *rec.undo);
        touched.insert(PageKey{rec.table, rec.rid.page});
    }

    rebuildIndexes();

    // Recovery checkpoint: flush every page recovery touched, log an
    // empty checkpoint, and truncate -- the next crash replays only
    // what happens after this point.
    for (const PageKey &key : touched)
        flushPageToStable(key, nullptr);
    s.pages_flushed = touched.size();
    wal_.append(0, WalRecordType::BeginCheckpoint, 8);
    const std::uint64_t end_lsn =
        wal_.append(0, WalRecordType::EndCheckpoint, 8);
    s.checkpoint_bytes = wal_.force();
    wal_.truncate(end_lsn);
    crashed_ = false;
    return s;
}

FailoverStats
Database::failoverTo(std::uint64_t watermark)
{
    assert(recovery_on_ && !crashed_);
    FailoverStats s;
    s.watermark = watermark;

    const auto logical = [](const WalRecord &rec) {
        return rec.type == WalRecordType::Insert ||
            rec.type == WalRecordType::Update ||
            rec.type == WalRecordType::Erase;
    };

    // Reverse history above the watermark, newest first: each record
    // is undone from its own images, so afterwards every table holds
    // exactly the state the promoted replica's log describes.
    const std::vector<WalRecord> &recs = wal_.records();
    std::unordered_set<PageKey, PageKeyHash> touched;
    for (auto it = recs.rbegin();
         it != recs.rend() && it->lsn > watermark; ++it) {
        const WalRecord &rec = *it;
        if (!logical(rec))
            continue;
        ++s.reversed_records;
        Table &tbl = *tables_[rec.table].table;
        touched.insert(PageKey{rec.table, rec.rid.page});
        if (rec.undo) {
            tbl.setRowAt(rec.rid, *rec.undo);
            continue;
        }
        if (rec.type == WalRecordType::Insert) {
            tbl.eraseAt(rec.rid);
            continue;
        }
        // Redo-only erase (a compensation record): the row's state
        // before it is whatever the most recent earlier record of the
        // same row left behind; with no earlier record retained the
        // row did not exist.
        bool restored = false;
        for (auto back = it + 1; back != recs.rend(); ++back) {
            if (!logical(*back) || back->table != rec.table ||
                !(back->rid == rec.rid))
                continue;
            if (back->type == WalRecordType::Erase)
                tbl.eraseAt(rec.rid);
            else if (back->redo)
                tbl.setRowAt(rec.rid, *back->redo);
            restored = true;
            break;
        }
        if (!restored)
            tbl.eraseAt(rec.rid);
    }

    // Transactions still open at the watermark are losers on the
    // promoted timeline: undo their retained records in reverse.
    std::unordered_set<TxnId> seen;
    std::unordered_set<TxnId> winners;
    for (const WalRecord &rec : recs) {
        if (rec.lsn > watermark)
            break;
        if (rec.txn == 0)
            continue;
        seen.insert(rec.txn);
        if (rec.type == WalRecordType::Commit ||
            rec.type == WalRecordType::Abort)
            winners.insert(rec.txn);
    }
    s.loser_txns = seen.size() - winners.size();
    for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
        const WalRecord &rec = *it;
        if (rec.lsn > watermark || !logical(rec) || rec.txn == 0 ||
            winners.count(rec.txn) != 0)
            continue;
        ++s.undo_records;
        Table &tbl = *tables_[rec.table].table;
        if (rec.type == WalRecordType::Insert)
            tbl.eraseAt(rec.rid);
        else if (rec.undo)
            tbl.setRowAt(rec.rid, *rec.undo);
        touched.insert(PageKey{rec.table, rec.rid.page});
    }

    // The unshipped tail never happened on the promoted timeline.
    s.discarded_records = wal_.discardAbove(watermark);
    s.replay_bytes = wal_.retainedBytes();

    rebuildIndexes();

    // Promotion checkpoint: flush every page whose content or stable
    // image differs from the at-W state -- pages the rewind touched,
    // dirty pages (committed effects <= W not yet in their stable
    // images), and stable images that ran ahead of W (a later crash
    // would resurrect unshipped effects from them).
    for (const auto &[key, rec_lsn] : pool_.dirtyPages()) {
        (void)rec_lsn;
        touched.insert(key);
    }
    for (const auto &[key, lsn] : stable_page_lsn_) {
        if (lsn > watermark)
            touched.insert(key);
    }
    for (const PageKey &key : touched) {
        page_lsn_[key] = watermark;
        flushPageToStable(key, nullptr);
    }
    s.pages_flushed = touched.size();
    for (auto &[key, lsn] : page_lsn_) {
        (void)key;
        lsn = std::min(lsn, watermark);
    }
    for (auto &[key, lsn] : stable_page_lsn_) {
        (void)key;
        lsn = std::min(lsn, watermark);
    }

    // In-flight transactions and the buffer cache die with the old
    // primary; the promoted replica starts cold.
    active_.clear();
    pool_.clear();

    wal_.append(0, WalRecordType::BeginCheckpoint, 8);
    const std::uint64_t end_lsn =
        wal_.append(0, WalRecordType::EndCheckpoint, 8);
    s.checkpoint_bytes = wal_.force();
    wal_.truncate(end_lsn);
    last_commit_lsn_ = std::min(last_commit_lsn_, watermark);
    return s;
}

void
Database::rebuildIndexes()
{
    for (TableState &ts : tables_) {
        ts.primary = UniqueIndex{};
        ts.primary.reserve(ts.table->rowCount());
        for (auto &[name, secondary] : ts.secondary) {
            (void)name;
            secondary.index = MultiIndex{};
        }
        ts.table->scan([this, &ts](RowId id, const Row &row) {
            ts.primary.insert(keyOf(row), id);
            indexAdd(ts, id, row);
            return true;
        });
    }
}

} // namespace jasim
