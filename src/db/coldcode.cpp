#include "db/coldcode.h"

#include <cstdio>

#include "db/registration.h"
#include "support/check.h"

namespace stc::db {

using cfg::BlockKind;
namespace {
constexpr BlockKind kFall = BlockKind::kFallThrough;
constexpr BlockKind kBr = BlockKind::kBranch;
constexpr BlockKind kCall = BlockKind::kCall;
constexpr BlockKind kRet = BlockKind::kReturn;
}  // namespace

void register_coldcode_routines(cfg::ProgramImage& im, cfg::ModuleId m) {
  im.add_routine("Err_format", m,
                 {{"entry", 9, kBr},
                  {"classify", 12, kBr},
                  {"compose", 26, kFall},
                  {"ret", 4, kRet}});
  im.add_routine("Fmt_row", m,
                 {{"entry", 6, kBr},
                  {"column", 9, kBr},
                  {"sep", 3, kBr},
                  {"ret", 4, kRet}});
  im.add_routine("Fmt_money", m,
                 {{"entry", 8, kBr},
                  {"digits", 11, kBr},
                  {"group", 6, kBr},
                  {"ret", 4, kRet}});
  im.add_routine("Cfg_parse", m,
                 {{"entry", 8, kBr},
                  {"line", 10, kBr},
                  {"comment", 4, kBr},
                  {"kv", 14, kBr},
                  {"ret", 5, kRet},
                  {"err_line", 18, kRet}});
  im.add_routine("Crc32_compute", m,
                 {{"entry", 6, kBr},
                  {"byte", 5, kBr},
                  {"bit", 7, kBr},
                  {"ret", 3, kRet}});
  im.add_routine("Vacuum_table", m,
                 {{"entry", 9, kCall},
                  {"page", 7, kCall},
                  {"slot", 8, kBr},
                  {"unpin", 4, kCall},
                  {"ret", 5, kRet},
                  {"err_missing", 15, kRet}});
  im.add_routine("Analyze_table", m,
                 {{"entry", 9, kCall},
                  {"fetch", 5, kCall},
                  {"fold", 12, kBr},
                  {"ret", 6, kRet},
                  {"err_missing", 15, kRet}});
  im.add_routine("Check_integrity", m,
                 {{"entry", 9, kCall},
                  {"tuple", 5, kCall},
                  {"index", 6, kBr},
                  {"probe", 7, kCall},
                  {"scan", 5, kCall},
                  {"verify", 8, kBr},
                  {"ret", 6, kRet},
                  {"err_missing", 15, kRet},
                  {"err_dangling", 21, kRet}});
  // Deliberately large, never-executed recovery/replication scaffolding:
  // these model subsystems a production engine links in (WAL replay, 2PC,
  // network protocol handling) that DSS queries never touch.
  const struct {
    const char* name;
    int blocks;
  } cold[] = {
      {"Wal_replay_record", 18},    {"Wal_checkpoint", 14},
      {"Wal_archive_segment", 12},  {"Txn_two_phase_commit", 16},
      {"Txn_abort_cleanup", 12},    {"Lock_deadlock_detect", 20},
      {"Lock_escalate", 10},        {"Net_handle_message", 22},
      {"Net_auth_handshake", 16},   {"Net_encode_result", 12},
      {"Repl_apply_stream", 18},    {"Repl_snapshot_send", 14},
      {"Catalog_upgrade", 12},      {"Stats_export", 10},
      {"Trigger_fire", 14},         {"Constraint_check_fk", 16},
      {"Cursor_declare", 8},        {"Cursor_fetch_backward", 12},
      {"Tablespace_move", 14},      {"Privilege_check", 10},
      {"View_expand", 12},          {"Rule_rewrite", 16},
      {"Temp_cleanup", 8},          {"Signal_handler", 10},
      {"Backup_base", 18},          {"Restore_verify", 16},
      // Parser/planner paths for statement classes DSS queries never issue.
      {"Parse_insert_stmt", 14},    {"Parse_update_stmt", 16},
      {"Parse_delete_stmt", 12},    {"Parse_create_table", 18},
      {"Parse_create_index", 12},   {"Parse_alter_table", 16},
      {"Parse_copy_stmt", 14},      {"Plan_update_target", 12},
      {"Plan_insert_values", 10},   {"Plan_geqo_search", 24},
      {"Plan_geqo_crossover", 14},  {"Plan_outer_join", 18},
      {"Plan_union_all", 12},       {"Rewrite_view_rule", 14},
      // Datatype support the TPC-D columns never exercise.
      {"Type_numeric_add", 16},     {"Type_numeric_div", 20},
      {"Type_interval_cmp", 12},    {"Type_time_parse", 14},
      {"Type_timestamp_tz", 18},    {"Type_bytea_escape", 12},
      {"Type_array_subscript", 14}, {"Type_regex_compile", 26},
      {"Type_regex_exec", 22},      {"Type_locale_strcoll", 12},
      {"Type_money_format", 10},    {"Type_float_to_text", 14},
      // Index maintenance beyond the read-only workload.
      {"BT_delete_entry", 16},      {"BT_merge_nodes", 20},
      {"BT_rebalance", 18},         {"HX_shrink", 12},
      {"HX_compact_chain", 10},     {"Heap_delete_tuple", 12},
      {"Heap_update_tuple", 16},    {"Heap_compact_page", 14},
      // Operational subsystems linked into every backend.
      {"Stats_autovacuum_check", 12}, {"Stats_histogram_build", 18},
      {"Mem_context_reset", 8},     {"Mem_context_stats", 10},
      {"Guc_reload_config", 14},    {"Guc_show_all", 10},
      {"Log_rotate_file", 12},      {"Log_csv_escape", 10},
      {"Auth_md5_digest", 16},      {"Auth_check_hba", 14},
      {"Port_socket_options", 10},  {"Port_tty_detach", 8},
  };
  for (const auto& routine : cold) {
    std::vector<cfg::BlockDef> blocks;
    blocks.push_back({"entry", 8, kBr});
    for (int b = 1; b + 1 < routine.blocks; ++b) {
      // Alternate realistic shapes: straight-line work, branches, calls.
      const BlockKind kind = b % 5 == 0 ? kCall : (b % 2 == 0 ? kFall : kBr);
      const std::uint16_t insns = static_cast<std::uint16_t>(4 + (b * 7) % 19);
      // A fall-through block must precede another non-return block.
      blocks.push_back({std::string("b").append(std::to_string(b)),
                        insns,
                        b + 2 == routine.blocks ? kBr : kind});
    }
    blocks.push_back({"ret", 4, kRet});
    im.add_routine(routine.name, m, std::move(blocks));
  }
}

namespace util {

std::string format_error(Kernel& kernel, ErrorCode code,
                         const std::string& detail) {
  DB_ROUTINE(kernel, "Err_format");
  DB_BB(kernel, "entry");
  const char* label = "unknown";
  DB_BB(kernel, "classify");
  switch (code) {
    case ErrorCode::kNone: label = "success"; break;
    case ErrorCode::kSyntax: label = "syntax error"; break;
    case ErrorCode::kSemantic: label = "semantic error"; break;
    case ErrorCode::kOutOfRange: label = "value out of range"; break;
    case ErrorCode::kCorruptPage: label = "corrupt page"; break;
    case ErrorCode::kBufferExhausted: label = "buffer pool exhausted"; break;
    case ErrorCode::kInternal: label = "internal error"; break;
  }
  DB_BB(kernel, "compose");
  std::string message = "ERROR ";
  message += std::to_string(static_cast<int>(code));
  message += ": ";
  message += label;
  if (!detail.empty()) {
    message += " -- ";
    message += detail;
  }
  DB_BB(kernel, "ret");
  return message;
}

std::string format_row(Kernel& kernel, const Tuple& tuple) {
  DB_ROUTINE(kernel, "Fmt_row");
  DB_BB(kernel, "entry");
  std::string out;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    DB_BB(kernel, "column");
    if (i != 0) {
      DB_BB(kernel, "sep");
      out += " | ";
    }
    out += tuple[i].to_string();
  }
  DB_BB(kernel, "ret");
  return out;
}

std::string format_money(Kernel& kernel, double amount) {
  DB_ROUTINE(kernel, "Fmt_money");
  DB_BB(kernel, "entry");
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f", amount < 0 ? -amount : amount);
  std::string digits = buf;
  const std::size_t dot = digits.find('.');
  std::string grouped;
  int since = 0;
  DB_BB(kernel, "digits");
  for (std::size_t i = dot; i-- > 0;) {
    if (since == 3) {
      DB_BB(kernel, "group");
      grouped += ',';
      since = 0;
    }
    grouped += digits[i];
    ++since;
  }
  std::string out = amount < 0 ? "-$" : "$";
  out.append(grouped.rbegin(), grouped.rend());
  out += digits.substr(dot);
  DB_BB(kernel, "ret");
  return out;
}

std::unordered_map<std::string, std::string> parse_config(
    Kernel& kernel, const std::string& text) {
  DB_ROUTINE(kernel, "Cfg_parse");
  DB_BB(kernel, "entry");
  std::unordered_map<std::string, std::string> config;
  std::size_t pos = 0;
  while (pos < text.size()) {
    DB_BB(kernel, "line");
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    // Strip comments and whitespace.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      DB_BB(kernel, "comment");
      line.resize(hash);
    }
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;
    const auto last = line.find_last_not_of(" \t");
    line = line.substr(first, last - first + 1);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      DB_BB(kernel, "err_line");
      STC_CHECK_MSG(false, "malformed configuration line");
    }
    DB_BB(kernel, "kv");
    std::string key = line.substr(0, eq);
    std::string value = line.substr(eq + 1);
    while (!key.empty() && (key.back() == ' ' || key.back() == '\t')) {
      key.pop_back();
    }
    while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
      value.erase(value.begin());
    }
    config[std::move(key)] = std::move(value);
  }
  DB_BB(kernel, "ret");
  return config;
}

std::uint32_t crc32(Kernel& kernel, const std::uint8_t* data, std::size_t n) {
  DB_ROUTINE(kernel, "Crc32_compute");
  DB_BB(kernel, "entry");
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    DB_BB(kernel, "byte");
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      DB_BB(kernel, "bit");
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
  }
  DB_BB(kernel, "ret");
  return ~crc;
}

VacuumStats vacuum_table(Database& db, const std::string& table_name) {
  Kernel& k = db.kernel();
  DB_ROUTINE(k, "Vacuum_table");
  DB_BB(k, "entry");
  TableInfo* table = db.catalog().lookup(table_name);
  if (table == nullptr) {
    DB_BB(k, "err_missing");
    STC_CHECK_MSG(false, "vacuum of unknown table");
  }
  VacuumStats stats;
  const std::uint32_t file = table->heap->file_id();
  const std::uint32_t pages = db.storage().file_page_count(file);
  for (std::uint32_t p = 0; p < pages; ++p) {
    DB_BB(k, "page");
    Page& page = db.buffer().pin({file, p});
    ++stats.pages_visited;
    for (std::uint16_t s = 0; s < page.slot_count(); ++s) {
      DB_BB(k, "slot");
      std::uint16_t length = 0;
      const std::uint8_t* record = page.record(s, length);
      STC_CHECK_MSG(record != nullptr && length > 0, "empty slot in page");
      ++stats.tuples_seen;
    }
    DB_BB(k, "unpin");
    db.buffer().unpin({file, p}, false);
  }
  DB_BB(k, "ret");
  return stats;
}

AnalyzeStats analyze_table(Database& db, const std::string& table_name) {
  Kernel& k = db.kernel();
  DB_ROUTINE(k, "Analyze_table");
  DB_BB(k, "entry");
  TableInfo* table = db.catalog().lookup(table_name);
  if (table == nullptr) {
    DB_BB(k, "err_missing");
    STC_CHECK_MSG(false, "analyze of unknown table");
  }
  AnalyzeStats stats;
  stats.min_values.resize(table->schema.size());
  stats.max_values.resize(table->schema.size());
  HeapFile::Scanner scanner(*table->heap);
  Tuple tuple;
  RID rid;
  while (true) {
    DB_BB(k, "fetch");
    if (!scanner.next(tuple, rid)) break;
    DB_BB(k, "fold");
    ++stats.rows;
    for (std::size_t c = 0; c < tuple.size(); ++c) {
      if (stats.min_values[c].is_null() ||
          tuple[c].compare(stats.min_values[c]) < 0) {
        stats.min_values[c] = tuple[c];
      }
      if (stats.max_values[c].is_null() ||
          tuple[c].compare(stats.max_values[c]) > 0) {
        stats.max_values[c] = tuple[c];
      }
    }
  }
  DB_BB(k, "ret");
  return stats;
}

std::uint64_t check_table_integrity(Database& db,
                                    const std::string& table_name) {
  Kernel& k = db.kernel();
  DB_ROUTINE(k, "Check_integrity");
  DB_BB(k, "entry");
  TableInfo* table = db.catalog().lookup(table_name);
  if (table == nullptr) {
    DB_BB(k, "err_missing");
    STC_CHECK_MSG(false, "integrity check of unknown table");
  }
  std::uint64_t verified = 0;
  HeapFile::Scanner scanner(*table->heap);
  Tuple tuple;
  RID rid;
  while (true) {
    DB_BB(k, "tuple");
    if (!scanner.next(tuple, rid)) break;
    for (const IndexInfo& index : table->indexes) {
      DB_BB(k, "index");
      const Value& key = tuple[static_cast<std::size_t>(index.column)];
      DB_BB(k, "probe");
      auto cursor = index.index->seek_equal(key);
      bool found = false;
      RID candidate;
      while (true) {
        DB_BB(k, "scan");
        if (!cursor->next(candidate)) break;
        if (candidate == rid) {
          found = true;
          break;
        }
      }
      DB_BB(k, "verify");
      if (!found) {
        DB_BB(k, "err_dangling");
        STC_CHECK_MSG(false, "heap tuple missing from index");
      }
      ++verified;
    }
  }
  DB_BB(k, "ret");
  return verified;
}

}  // namespace util
}  // namespace stc::db
