// Database facade tests: schema definition, index maintenance on insert,
// and the SQL entry points.
#include "db/database.h"

#include <gtest/gtest.h>

namespace stc::db {
namespace {

Schema people_schema() {
  return Schema({{"id", ValueType::kInt},
                 {"name", ValueType::kString},
                 {"age", ValueType::kInt}});
}

TEST(DatabaseTest, CreateTableUppercasesIdentifiers) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  EXPECT_EQ(t.name, "PEOPLE");
  EXPECT_EQ(t.schema.column(0).name, "ID");
  EXPECT_NE(db.catalog().lookup("PEOPLE"), nullptr);
  EXPECT_EQ(db.catalog().lookup("nope"), nullptr);
}

TEST(DatabaseTest, InsertMaintainsAllIndexes) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  db.create_index("people", "id", IndexKind::kBTree, true);
  db.create_index("people", "age", IndexKind::kHash, false);
  for (std::int64_t i = 0; i < 100; ++i) {
    db.insert(t, {Value(i), Value(std::string("p").append(std::to_string(i))),
                  Value(i % 10)});
  }
  ASSERT_EQ(t.indexes.size(), 2u);
  EXPECT_EQ(t.indexes[0].index->entry_count(), 100u);
  EXPECT_EQ(t.indexes[1].index->entry_count(), 100u);
  // Probe both.
  RID rid;
  auto by_id = t.indexes[0].index->seek_equal(Value(std::int64_t{42}));
  EXPECT_TRUE(by_id->next(rid));
  int age_hits = 0;
  auto by_age = t.indexes[1].index->seek_equal(Value(std::int64_t{3}));
  while (by_age->next(rid)) ++age_hits;
  EXPECT_EQ(age_hits, 10);
}

TEST(DatabaseTest, IndexCreatedAfterLoadBackfills) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  for (std::int64_t i = 0; i < 50; ++i) {
    db.insert(t, {Value(i), Value("x"), Value(i)});
  }
  db.create_index("people", "id", IndexKind::kBTree, true);
  EXPECT_EQ(t.indexes[0].index->entry_count(), 50u);
}

TEST(DatabaseTest, RunQueryEndToEnd) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  for (std::int64_t i = 0; i < 30; ++i) {
    db.insert(t, {Value(i), Value(std::string("p").append(std::to_string(i))),
                  Value(20 + i % 5)});
  }
  const QueryResult result = db.run_query(
      "SELECT age, COUNT(*) AS n FROM people GROUP BY age ORDER BY age");
  ASSERT_EQ(result.rows.size(), 5u);
  EXPECT_EQ(result.rows[0][0].as_int(), 20);
  EXPECT_EQ(result.rows[0][1].as_int(), 6);
  EXPECT_EQ(result.schema.column(1).name, "N");
  EXPECT_FALSE(result.plan_text.empty());
}

TEST(DatabaseTest, PlanWithoutExecution) {
  Database db(32);
  db.create_table("people", people_schema());
  const auto plan = db.plan("SELECT id FROM people WHERE id = 1");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->out_schema.size(), 1u);
}

TEST(DatabaseTest, QueriesEmitKernelBlocksOnlyWithSink) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  db.insert(t, {Value(std::int64_t{1}), Value("a"), Value(std::int64_t{9})});
  class Counter : public cfg::TraceSink {
   public:
    void on_block(cfg::BlockId) override { ++events; }
    std::uint64_t events = 0;
  } counter;
  db.kernel().set_sink(&counter);
  db.run_query("SELECT name FROM people WHERE id = 1");
  db.kernel().set_sink(nullptr);
  const std::uint64_t with_sink = counter.events;
  EXPECT_GT(with_sink, 100u);
  db.run_query("SELECT name FROM people WHERE id = 1");
  EXPECT_EQ(counter.events, with_sink);  // sink detached: no more events
}

TEST(DatabaseDeathTest, InsertArityChecked) {
  Database db(32);
  TableInfo& t = db.create_table("people", people_schema());
  EXPECT_DEATH(db.insert(t, {Value(std::int64_t{1})}), "");
}

TEST(DatabaseDeathTest, CreateIndexValidatesNames) {
  Database db(32);
  db.create_table("people", people_schema());
  EXPECT_DEATH(db.create_index("missing", "id", IndexKind::kBTree, true),
               "unknown table");
  EXPECT_DEATH(db.create_index("people", "missing", IndexKind::kBTree, true),
               "unknown column");
}

}  // namespace
}  // namespace stc::db
