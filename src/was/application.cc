#include "was/application.h"

#include <array>
#include <cassert>
#include <string>

namespace jasim {

namespace {

/** Population scale per IR unit. */
constexpr double customersPerIr = 1000.0;
constexpr double vehiclesPerIr = 2000.0;
constexpr double inventoryPerIr = 1000.0;
constexpr double ordersPerIr = 1500.0;
constexpr double workordersPerIr = 200.0;

/** Key-popularity skew of the application's accesses. */
constexpr double keyZipfS = 0.50;

} // namespace

Jas2004Application::Jas2004Application(const DbConfig &db_config,
                                       double injection_rate,
                                       std::uint64_t seed)
    : db_(db_config), rng_(seed),
      customers_(static_cast<std::uint32_t>(
          customersPerIr * injection_rate)),
      vehicles_(static_cast<std::uint32_t>(
          vehiclesPerIr * injection_rate)),
      inventory_(static_cast<std::uint32_t>(
          inventoryPerIr * injection_rate)),
      orders_(static_cast<std::uint32_t>(ordersPerIr * injection_rate)),
      workorders_(static_cast<std::uint32_t>(
          workordersPerIr * injection_rate)),
      customer_keys_(std::max<std::size_t>(customers_, 1), keyZipfS),
      vehicle_keys_(std::max<std::size_t>(vehicles_, 1), keyZipfS),
      inventory_keys_(std::max<std::size_t>(inventory_, 1), keyZipfS)
{
    assert(injection_rate > 0.0);
    createSchema();
    populate(injection_rate);
}

void
Jas2004Application::createSchema()
{
    db_.createTable(Schema{"customer",
                           {{"id", ColumnType::Integer},
                            {"name", ColumnType::Text},
                            {"region", ColumnType::Integer}}});
    db_.createTable(Schema{"vehicle",
                           {{"id", ColumnType::Integer},
                            {"model", ColumnType::Text},
                            {"price", ColumnType::Integer},
                            {"category", ColumnType::Integer}}});
    db_.createTable(Schema{"inventory",
                           {{"id", ColumnType::Integer},
                            {"vehicle_id", ColumnType::Integer},
                            {"quantity", ColumnType::Integer},
                            {"site", ColumnType::Integer}}});
    db_.createTable(Schema{"orders",
                           {{"id", ColumnType::Integer},
                            {"customer_id", ColumnType::Integer},
                            {"vehicle_id", ColumnType::Integer},
                            {"quantity", ColumnType::Integer},
                            {"status", ColumnType::Integer}}});
    db_.createTable(Schema{"workorder",
                           {{"id", ColumnType::Integer},
                            {"assembly_id", ColumnType::Integer},
                            {"quantity", ColumnType::Integer},
                            {"status", ColumnType::Integer}}});
}

void
Jas2004Application::populate(double injection_rate)
{
    (void)injection_rate;
    const auto customer_t = *db_.tableId("customer");
    const auto vehicle_t = *db_.tableId("vehicle");
    const auto inventory_t = *db_.tableId("inventory");
    const auto orders_t = *db_.tableId("orders");
    const auto workorder_t = *db_.tableId("workorder");
    db_.reserveRows(customer_t, customers_);
    db_.reserveRows(vehicle_t, vehicles_);
    db_.reserveRows(inventory_t, inventory_);
    db_.reserveRows(orders_t, orders_);
    db_.reserveRows(workorder_t, workorders_);

    auto batched = [this](std::uint32_t count, auto &&insert_one) {
        TxnId txn = db_.begin();
        for (std::uint32_t i = 0; i < count; ++i) {
            insert_one(txn, i);
            ++rows_loaded_;
            if ((i + 1) % 1024 == 0) {
                db_.commit(txn);
                txn = db_.begin();
            }
        }
        db_.commit(txn);
    };

    batched(customers_, [&](TxnId txn, std::uint32_t i) {
        db_.insert(txn, customer_t,
                   Row{std::int64_t(i),
                       std::string("customer-") + std::to_string(i),
                       std::int64_t(i % 16)});
    });
    batched(vehicles_, [&](TxnId txn, std::uint32_t i) {
        db_.insert(txn, vehicle_t,
                   Row{std::int64_t(i),
                       std::string("model-") + std::to_string(i % 500),
                       std::int64_t(15000 + (i * 37) % 60000),
                       std::int64_t(i % 12)});
    });
    batched(inventory_, [&](TxnId txn, std::uint32_t i) {
        db_.insert(txn, inventory_t,
                   Row{std::int64_t(i),
                       std::int64_t(i % std::max(vehicles_, 1u)),
                       std::int64_t(100 + i % 900),
                       std::int64_t(i % 8)});
    });
    batched(orders_, [&](TxnId txn, std::uint32_t i) {
        db_.insert(txn, orders_t,
                   Row{std::int64_t(i),
                       std::int64_t(i % std::max(customers_, 1u)),
                       std::int64_t(i % std::max(vehicles_, 1u)),
                       std::int64_t(1 + i % 4), std::int64_t(0)});
    });
    batched(workorders_, [&](TxnId txn, std::uint32_t i) {
        db_.insert(txn, workorder_t,
                   Row{std::int64_t(i),
                       std::int64_t(i % std::max(inventory_, 1u)),
                       std::int64_t(1 + i % 8), std::int64_t(0)});
    });
    next_order_id_ = orders_;
    next_workorder_id_ = workorders_;

    db_.createSecondaryIndex(inventory_t, "vehicle_id");
    db_.createSecondaryIndex(orders_t, "customer_id");
}

const TxnProfile &
txnProfile(RequestType type)
{
    // Indexed by RequestType.
    static const std::array<TxnProfile, requestTypeCount> profiles{{
        {.was_jit_us = 16300, .was_other_us = 14800, .web_us = 5000,
         .db_us = 10400, .kernel_us = 10700, .alloc_bytes = 550 * 1024,
         .beans = BeanPlan{5, 9}, .response_kb = 6.0,
         .method_invocations = 2600}, // Purchase
        {.was_jit_us = 15300, .was_other_us = 13600, .web_us = 4500,
         .db_us = 9600, .kernel_us = 9700, .alloc_bytes = 500 * 1024,
         .beans = BeanPlan{4, 7}, .response_kb = 6.0,
         .method_invocations = 2400}, // Manage
        {.was_jit_us = 9600, .was_other_us = 8600, .web_us = 3800,
         .db_us = 6000, .kernel_us = 6200, .alloc_bytes = 300 * 1024,
         .beans = BeanPlan{3, 4}, .response_kb = 8.0,
         .method_invocations = 1500}, // Browse
        {.was_jit_us = 19800, .was_other_us = 17900, .web_us = 0,
         .db_us = 12100, .kernel_us = 14500, .alloc_bytes = 700 * 1024,
         .beans = BeanPlan{6, 11}, .response_kb = 0.0,
         .method_invocations = 3200}, // CreateWorkOrder
    }};
    return profiles[static_cast<std::size_t>(type)];
}

void
Jas2004Application::enableAudit()
{
    assert(!audit_on_);
    audit_table_ = db_.createTable(
        Schema{"audit",
               {{"token", ColumnType::Integer},
                {"request_type", ColumnType::Integer}}});
    audit_on_ = true;
}

void
Jas2004Application::stampAudit(TxnId txn, RequestType type,
                               TxnDbOutcome &outcome)
{
    if (!audit_on_)
        return;
    outcome.audit_token = static_cast<std::uint64_t>(++next_audit_token_);
    outcome.cost.add(db_.insert(
        txn, audit_table_,
        Row{next_audit_token_,
            std::int64_t(static_cast<std::uint8_t>(type))}));
}

void
Jas2004Application::finishAudit(TxnDbOutcome &outcome)
{
    if (!audit_on_)
        return;
    outcome.commit_lsn = db_.lastCommitLsn();
    outcome.wal_issued_lsn = db_.wal().issuedLsn();
}

std::int64_t
Jas2004Application::pickCustomer()
{
    return static_cast<std::int64_t>(customer_keys_(rng_));
}

std::int64_t
Jas2004Application::pickVehicle()
{
    return static_cast<std::int64_t>(vehicle_keys_(rng_));
}

std::int64_t
Jas2004Application::pickInventory()
{
    return static_cast<std::int64_t>(inventory_keys_(rng_));
}

TxnDbOutcome
Jas2004Application::runTransaction(RequestType type)
{
    switch (type) {
      case RequestType::Browse: return runBrowse();
      case RequestType::Purchase: return runPurchase();
      case RequestType::Manage: return runManage();
      case RequestType::CreateWorkOrder: return runCreateWorkOrder();
    }
    return {};
}

TxnDbOutcome
Jas2004Application::runBrowse()
{
    TxnDbOutcome outcome;
    const auto vehicle_t = *db_.tableId("vehicle");
    const auto inventory_t = *db_.tableId("inventory");
    const auto customer_t = *db_.tableId("customer");

    for (int i = 0; i < 6; ++i)
        db_.pointSelect(vehicle_t, pickVehicle(), outcome.cost);
    for (int i = 0; i < 2; ++i) {
        db_.selectBySecondary(inventory_t, "vehicle_id", pickVehicle(),
                              outcome.cost);
    }
    db_.pointSelect(customer_t, pickCustomer(), outcome.cost);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runPurchase()
{
    TxnDbOutcome outcome;
    const auto customer_t = *db_.tableId("customer");
    const auto vehicle_t = *db_.tableId("vehicle");
    const auto inventory_t = *db_.tableId("inventory");
    const auto orders_t = *db_.tableId("orders");

    const TxnId txn = db_.begin();
    const std::int64_t customer = pickCustomer();
    db_.pointSelect(customer_t, customer, outcome.cost);
    const std::int64_t vehicle = pickVehicle();
    db_.pointSelect(vehicle_t, vehicle, outcome.cost);
    db_.pointSelect(vehicle_t, pickVehicle(), outcome.cost);
    db_.selectBySecondary(inventory_t, "vehicle_id", vehicle,
                          outcome.cost);

    outcome.cost.add(db_.insert(
        txn, orders_t,
        Row{next_order_id_++, customer, vehicle,
            std::int64_t(1 + static_cast<std::int64_t>(rng_.below(4))),
            std::int64_t(0)}));

    const std::int64_t inv = pickInventory();
    const auto inv_row = db_.pointSelect(inventory_t, inv, outcome.cost);
    if (inv_row) {
        Row updated = *inv_row;
        auto &qty = std::get<std::int64_t>(updated[2]);
        qty = qty > 0 ? qty - 1 : 500;
        outcome.cost.add(
            db_.updateByKey(txn, inventory_t, inv, std::move(updated)));
    }
    stampAudit(txn, RequestType::Purchase, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runManage()
{
    TxnDbOutcome outcome;
    const auto customer_t = *db_.tableId("customer");
    const auto orders_t = *db_.tableId("orders");

    const TxnId txn = db_.begin();
    const std::int64_t customer = pickCustomer();
    db_.pointSelect(customer_t, customer, outcome.cost);
    const auto open_orders = db_.selectBySecondary(
        orders_t, "customer_id", customer, outcome.cost);
    std::size_t updated = 0;
    for (const auto &order : open_orders) {
        if (updated >= 2)
            break;
        Row row = order;
        std::get<std::int64_t>(row[4]) += 1; // advance status
        const std::int64_t order_id = std::get<std::int64_t>(row[0]);
        outcome.cost.add(
            db_.updateByKey(txn, orders_t, order_id, std::move(row)));
        ++updated;
    }
    stampAudit(txn, RequestType::Manage, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

TxnDbOutcome
Jas2004Application::runCreateWorkOrder()
{
    TxnDbOutcome outcome;
    const auto inventory_t = *db_.tableId("inventory");
    const auto vehicle_t = *db_.tableId("vehicle");
    const auto workorder_t = *db_.tableId("workorder");

    const TxnId txn = db_.begin();
    outcome.cost.add(db_.insert(
        txn, workorder_t,
        Row{next_workorder_id_++, pickInventory(),
            std::int64_t(1 + static_cast<std::int64_t>(rng_.below(8))),
            std::int64_t(0)}));
    for (int i = 0; i < 3; ++i)
        db_.pointSelect(inventory_t, pickInventory(), outcome.cost);
    db_.pointSelect(vehicle_t, pickVehicle(), outcome.cost);
    for (int i = 0; i < 2; ++i) {
        const std::int64_t inv = pickInventory();
        const auto row = db_.pointSelect(inventory_t, inv, outcome.cost);
        if (row) {
            Row updated = *row;
            std::get<std::int64_t>(updated[2]) += 1;
            outcome.cost.add(db_.updateByKey(txn, inventory_t, inv,
                                             std::move(updated)));
        }
    }
    stampAudit(txn, RequestType::CreateWorkOrder, outcome);
    outcome.cost.add(db_.commit(txn));
    finishAudit(outcome);
    return outcome;
}

} // namespace jasim
