/**
 * @file
 * The database facade: tables, indexes, buffer pool, WAL, transactions.
 *
 * A deliberately small but genuine relational engine standing in for
 * DB2: operations return DbCost records (page hits/misses, forced log
 * bytes, CPU estimate) that the system-level simulation converts into
 * service time and disk traffic.
 *
 * Crash recovery (opt-in via enableRecovery()) follows ARIES:
 * mutations log logical redo/undo records, the buffer pool tracks
 * dirty pages with recovery LSNs, fuzzy checkpoints flush dirty pages
 * and truncate the durable WAL prefix, and crash()/recover() discard
 * the volatile state then repeat history (pageLSN-guarded redo of
 * every retained record) before undoing loser transactions. Aborts
 * write compensation records, so an aborted transaction is a winner
 * whose log fully describes its rollback. Healthy runs that never
 * call enableRecovery() are byte-identical to a build without any of
 * this machinery.
 */

#ifndef JASIM_DB_DATABASE_H
#define JASIM_DB_DATABASE_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/buffer_pool.h"
#include "db/index.h"
#include "db/table.h"
#include "db/wal.h"

namespace jasim {

/** Engine sizing. */
struct DbConfig
{
    std::size_t buffer_pool_pages = 32768; //!< 128 MB of 4 KB pages
    std::uint16_t rows_per_page = 32;
};

/** Cost of one or more operations. */
struct DbCost
{
    std::uint64_t pages_hit = 0;
    std::uint64_t pages_read = 0;   //!< buffer pool misses
    std::uint64_t writebacks = 0;
    std::uint64_t rows = 0;
    std::uint64_t log_bytes_forced = 0;
    double cpu_us = 0.0;

    void add(const DbCost &other);
};

/** One fuzzy checkpoint's work. */
struct CheckpointStats
{
    std::uint64_t begin_lsn = 0;
    std::uint64_t end_lsn = 0;
    std::uint64_t pages_flushed = 0;
    std::uint64_t log_bytes_forced = 0;
    std::uint64_t truncated_records = 0;
};

/** What a crash destroyed. */
struct CrashStats
{
    std::uint64_t wal_records_lost = 0;  //!< unforced tail
    std::uint64_t torn_records = 0;      //!< torn off a partial force
    std::uint64_t dirty_pages_discarded = 0;
};

/**
 * One failover promotion: the database rewound to a replica's durable
 * watermark (failoverTo()).
 */
struct FailoverStats
{
    std::uint64_t watermark = 0;         //!< promoted durable LSN
    std::uint64_t reversed_records = 0;  //!< mutations above W rolled back
    std::uint64_t discarded_records = 0; //!< WAL tail records dropped
    std::uint64_t loser_txns = 0;        //!< open txns at W undone
    std::uint64_t undo_records = 0;      //!< loser mutations <= W undone
    std::uint64_t pages_flushed = 0;     //!< promotion checkpoint flush
    std::uint64_t replay_bytes = 0;      //!< retained WAL at W
    std::uint64_t checkpoint_bytes = 0;  //!< promotion checkpoint force
};

/** One recovery pass (redo + undo + recovery checkpoint). */
struct RecoveryStats
{
    std::uint64_t replay_bytes = 0;   //!< retained WAL read back
    std::uint64_t redo_records = 0;   //!< logical records scanned
    std::uint64_t redo_applied = 0;   //!< passed the pageLSN guard
    std::uint64_t undo_records = 0;   //!< loser records rolled back
    std::uint64_t loser_txns = 0;
    std::uint64_t winner_txns = 0;
    std::uint64_t pages_flushed = 0;  //!< recovery checkpoint flush
    std::uint64_t checkpoint_bytes = 0;
};

/** Transaction handle. */
using TxnId = std::uint64_t;

/**
 * The engine. Not thread-safe: the system simulation serializes
 * access, modelling DB2's latching at a coarser grain.
 */
class Database
{
  public:
    explicit Database(const DbConfig &config);

    /** Create a table; column 0 becomes the unique primary key. */
    std::uint32_t createTable(Schema schema);

    /** Create a non-unique secondary index on an integer column. */
    void createSecondaryIndex(std::uint32_t table_id,
                              const std::string &column);

    /**
     * Size a table's primary index for `rows` rows up front. Changes
     * no outcome (no index is iterated), only how often it rehashes.
     */
    void reserveRows(std::uint32_t table_id, std::size_t rows);

    std::optional<std::uint32_t> tableId(const std::string &name) const;
    const Table &table(std::uint32_t table_id) const;

    TxnId begin();
    DbCost commit(TxnId txn);
    DbCost abort(TxnId txn);

    /** Insert a row (column 0 must be a unique integer key). */
    DbCost insert(TxnId txn, std::uint32_t table_id, Row row);

    /** Point select by primary key. */
    std::optional<Row> pointSelect(std::uint32_t table_id,
                                   std::int64_t key, DbCost &cost);

    /** Update by primary key; cost reflects read + write + log. */
    DbCost updateByKey(TxnId txn, std::uint32_t table_id,
                       std::int64_t key, Row row);

    /** Delete by primary key. */
    DbCost eraseByKey(TxnId txn, std::uint32_t table_id,
                      std::int64_t key);

    /** Select via a secondary index. */
    std::vector<Row> selectBySecondary(std::uint32_t table_id,
                                       const std::string &column,
                                       std::int64_t key, DbCost &cost);

    /** Predicate full scan (no index). */
    std::vector<Row> scanWhere(std::uint32_t table_id,
                               std::size_t column, std::int64_t value,
                               DbCost &cost);

    const BufferPool &bufferPool() const { return pool_; }
    const Wal &wal() const { return wal_; }

    // ---- crash recovery ----

    /**
     * Arm recovery: snapshot every table into the stable store,
     * switch the WAL to retention mode, and start logging logical
     * redo/undo payloads. Call once, after schema + population and
     * with no transaction in flight.
     */
    void enableRecovery();
    bool recoveryEnabled() const { return recovery_on_; }

    /** LSN of the most recent Commit record (recovery mode). */
    std::uint64_t lastCommitLsn() const { return last_commit_lsn_; }

    /** The simulated disk completed the WAL force up to `lsn`. */
    void confirmWalDurable(std::uint64_t lsn);

    /**
     * Fuzzy checkpoint: BeginCheckpoint record, flush every dirty
     * page to the stable store, EndCheckpoint record, force, then
     * truncate the WAL below the redo point (min active-txn firstLSN,
     * capped by the checkpoint itself). The caller charges the
     * returned flush/force bytes to the disk model.
     */
    CheckpointStats checkpoint();

    /**
     * Power off: lose the unforced WAL tail (plus, for a torn write,
     * the second half of the in-flight force window), every buffered
     * page, and all in-flight transactions. Tables revert to their
     * stable images. Queries are invalid until recover().
     */
    CrashStats crash(bool torn);

    /**
     * ARIES restart: redo every retained record whose LSN beats the
     * stable page's LSN, undo loser transactions in reverse, rebuild
     * the hash indexes, and cut a recovery checkpoint. The caller
     * charges replay_bytes (reads) and the checkpoint (writes) to the
     * disk model so recovery takes simulated time.
     */
    RecoveryStats recover();
    bool crashed() const { return crashed_; }

    // ---- replication support (jasim::repl) ----

    /**
     * Replication floor: the lowest LSN any replica still needs
     * (min replica durable watermark). Fuzzy checkpoints never
     * truncate above it -- nor above the first record of any
     * transaction that spans it, since a failover at the floor must
     * still be able to undo that transaction. Maintained by the
     * cluster as replica watermarks advance.
     */
    void setTruncationFloor(std::uint64_t lsn)
    {
        floor_on_ = true;
        floor_ = lsn;
    }
    void clearTruncationFloor() { floor_on_ = false; }

    /**
     * Failover: rewind this (live, not crashed) database to the
     * promoted replica's durable watermark W. Every mutation above W
     * is reversed from its log record, transactions still open at W
     * are undone, the unshipped WAL tail is discarded, and a
     * promotion checkpoint is cut so the promoted history starts from
     * a clean stable image. Afterwards the database serves the shard
     * exactly as the promoted replica would: acked-at-W state only.
     * The caller charges replay_bytes / pages_flushed /
     * checkpoint_bytes to the disk model.
     */
    FailoverStats failoverTo(std::uint64_t watermark);

  private:
    /** A secondary index and the position of the column it keys. */
    struct SecondaryIndex
    {
        std::size_t column = 0;
        MultiIndex index;
    };

    struct TableState
    {
        std::unique_ptr<Table> table;
        UniqueIndex primary;
        std::map<std::string, SecondaryIndex> secondary;
    };

    struct UndoEntry
    {
        std::uint32_t table_id;
        RowId row_id;
        std::optional<Row> before; //!< nullopt for inserts
    };

    struct TxnState
    {
        std::vector<UndoEntry> undo;
        std::uint64_t first_lsn = 0; //!< Begin record (recovery mode)
    };

    DbConfig config_;
    std::vector<TableState> tables_;
    std::unordered_map<std::string, std::uint32_t> table_names_;
    BufferPool pool_;
    Wal wal_;
    TxnId next_txn_ = 1;
    std::unordered_map<TxnId, TxnState> active_;

    bool recovery_on_ = false;
    bool crashed_ = false;
    std::uint64_t last_commit_lsn_ = 0;
    bool floor_on_ = false;
    std::uint64_t floor_ = 0;
    /** pageLSN of buffered pages / their stable images. */
    std::unordered_map<PageKey, std::uint64_t, PageKeyHash> page_lsn_;
    std::unordered_map<PageKey, std::uint64_t, PageKeyHash>
        stable_page_lsn_;
    /** Per-table stable page images (what survives a crash). */
    std::vector<std::vector<Table::PageImage>> stable_;

    TableState &state(std::uint32_t table_id);
    const TableState &state(std::uint32_t table_id) const;

    /** Charge a page touch to the pool and the cost record. */
    void touchPage(std::uint32_t table_id, std::uint32_t page,
                   bool dirty, DbCost &cost,
                   std::uint64_t recovery_lsn = 0);

    /** Log a logical mutation; returns its LSN (0 when not armed). */
    std::uint64_t logMutation(TxnId txn, WalRecordType type,
                              std::uint32_t payload_bytes,
                              std::uint32_t table_id, RowId rid,
                              std::optional<Row> redo,
                              std::optional<Row> undo);

    /** Flush one page's image to the stable store (WAL first). */
    void flushPageToStable(PageKey key, DbCost *cost);

    static std::uint32_t rowBytes(const Row &row);
    static std::int64_t keyOf(const Row &row);

    /** Maintain secondary indexes around a row mutation. */
    void indexRemove(TableState &ts, RowId id, const Row &row);
    void indexAdd(TableState &ts, RowId id, const Row &row);

    void rebuildIndexes();
};

} // namespace jasim

#endif // JASIM_DB_DATABASE_H
