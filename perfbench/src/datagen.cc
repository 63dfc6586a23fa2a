#include "datagen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "arrow/builder.h"
#include "arrow/record_batch.h"
#include "compute/temporal.h"
#include "format/csv.h"
#include "format/fpq.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

template <typename B>
ArrayPtr Done(B* builder) {
  return builder->Finish().ValueOrDie();
}

Status WriteFpq(const std::string& path, const SchemaPtr& schema,
                std::vector<ArrayPtr> columns, int64_t rows, int64_t row_group_rows) {
  auto batch = std::make_shared<RecordBatch>(schema, rows, std::move(columns));
  format::fpq::WriteOptions options;
  options.row_group_rows = row_group_rows;
  return format::fpq::WriteFile(path, schema, SliceBatch(batch, row_group_rows),
                                options);
}

// ---------------------------------------------------------------- TPC-H

const char* kNations[25] = {
    "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
    "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
    "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
    "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"};
const int kNationRegion[25] = {0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2,
                               4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1};
const char* kRegions[5] = {"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"};
const char* kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                            "HOUSEHOLD"};
const char* kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                              "5-LOW"};
const char* kShipModes[7] = {"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"};
const char* kInstructs[4] = {"DELIVER IN PERSON", "COLLECT COD", "NONE",
                             "TAKE BACK RETURN"};
const char* kTypes1[6] = {"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"};
const char* kTypes2[5] = {"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"};
const char* kTypes3[5] = {"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"};
const char* kContainers1[5] = {"SM", "MED", "LG", "JUMBO", "WRAP"};
const char* kContainers2[8] = {"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"};
const char* kColors[16] = {"almond", "antique", "aquamarine", "azure", "beige",
                           "bisque", "black", "blanched", "blue", "blush",
                           "brown", "burlywood", "chartreuse", "forest",
                           "frosted", "green"};
const char* kNouns[8] = {"packages", "deposits", "requests", "accounts", "ideas",
                         "platelets", "theodolites", "instructions"};

std::string Comment(Rng* rng) {
  std::string out = kColors[rng->Uniform(0, 15)];
  out += " ";
  out += kNouns[rng->Uniform(0, 7)];
  out += " sleep quickly after the ";
  out += kColors[rng->Uniform(0, 15)];
  out += " ";
  out += kNouns[rng->Uniform(0, 7)];
  // Rare markers that the Q13 and Q16 predicates look for.
  if (rng->Next() % 50 == 0) out += " special requests ";
  if (rng->Next() % 80 == 0) out += " Customer Complaints ";
  return out;
}

std::string Phone(Rng* rng, int64_t nationkey) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d", static_cast<int>(10 + nationkey),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(100, 999)),
                static_cast<int>(rng->Uniform(1000, 9999)));
  return buf;
}

double RetailPrice(int64_t partkey) {
  return (90000.0 + (partkey % 20000) * 100.0 + (partkey % 1000)) / 100.0;
}

/// DECIMAL(15,2) column fed with dollar amounts rounded to cents.
class MoneyBuilder {
 public:
  MoneyBuilder() : builder_(decimal128(15, 2)) {}
  void Append(double dollars) { builder_.Append(Decimal128(std::llround(dollars * 100.0))); }
  ArrayPtr Finish() { return Done(&builder_); }

 private:
  Decimal128Builder builder_;
};

const DataType kMoney = decimal128(15, 2);
constexpr int64_t kTpchRowGroup = 64 * 1024;

}  // namespace

const std::vector<std::string>& TpchTables() {
  static const std::vector<std::string> kTables = {
      "region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"};
  return kTables;
}

Result<std::vector<std::string>> GenerateTpch(uint64_t seed, double sf,
                                              const std::string& dir) {
  const int64_t n_supplier = std::max<int64_t>(static_cast<int64_t>(10000 * sf), 10);
  const int64_t n_customer = std::max<int64_t>(static_cast<int64_t>(150000 * sf), 30);
  const int64_t n_part = std::max<int64_t>(static_cast<int64_t>(200000 * sf), 40);
  const int64_t n_orders = std::max<int64_t>(static_cast<int64_t>(1500000 * sf), 150);
  auto path = [&](const char* table) { return dir + "/" + table + ".fpq"; };

  {  // region
    Rng rng(Mix(seed, 11));
    Int64Builder key;
    StringBuilder name, comment;
    for (int64_t r = 0; r < 5; ++r) {
      key.Append(r);
      name.Append(kRegions[r]);
      comment.Append(Comment(&rng));
    }
    auto schema = fusion::schema({Field("r_regionkey", int64(), false),
                                  Field("r_name", utf8(), false),
                                  Field("r_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(path("region"), schema,
                                  {Done(&key), Done(&name), Done(&comment)}, 5,
                                  kTpchRowGroup));
  }
  {  // nation
    Rng rng(Mix(seed, 12));
    Int64Builder key, regionkey;
    StringBuilder name, comment;
    for (int64_t n = 0; n < 25; ++n) {
      key.Append(n);
      name.Append(kNations[n]);
      regionkey.Append(kNationRegion[n]);
      comment.Append(Comment(&rng));
    }
    auto schema = fusion::schema(
        {Field("n_nationkey", int64(), false), Field("n_name", utf8(), false),
         Field("n_regionkey", int64(), false), Field("n_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(
        path("nation"), schema,
        {Done(&key), Done(&name), Done(&regionkey), Done(&comment)}, 25, kTpchRowGroup));
  }
  {  // supplier
    Rng rng(Mix(seed, 13));
    Int64Builder key, nationkey;
    StringBuilder name, address, phone, comment;
    MoneyBuilder acctbal;
    for (int64_t s = 1; s <= n_supplier; ++s) {
      key.Append(s);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Supplier#%09d", static_cast<int>(s));
      name.Append(buf);
      address.Append("addr " + std::to_string(rng.Uniform(1, 99999)));
      int64_t nk = rng.Uniform(0, 24);
      nationkey.Append(nk);
      phone.Append(Phone(&rng, nk));
      acctbal.Append(rng.UniformDouble(-999.99, 9999.99));
      comment.Append(Comment(&rng));
    }
    auto schema = fusion::schema(
        {Field("s_suppkey", int64(), false), Field("s_name", utf8(), false),
         Field("s_address", utf8(), false), Field("s_nationkey", int64(), false),
         Field("s_phone", utf8(), false), Field("s_acctbal", kMoney, false),
         Field("s_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(path("supplier"), schema,
                                  {Done(&key), Done(&name), Done(&address),
                                   Done(&nationkey), Done(&phone), acctbal.Finish(),
                                   Done(&comment)},
                                  n_supplier, kTpchRowGroup));
  }
  {  // customer
    Rng rng(Mix(seed, 14));
    Int64Builder key, nationkey;
    StringBuilder name, address, phone, segment, comment;
    MoneyBuilder acctbal;
    for (int64_t c = 1; c <= n_customer; ++c) {
      key.Append(c);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Customer#%09d", static_cast<int>(c));
      name.Append(buf);
      address.Append("addr " + std::to_string(rng.Uniform(1, 99999)));
      int64_t nk = rng.Uniform(0, 24);
      nationkey.Append(nk);
      phone.Append(Phone(&rng, nk));
      acctbal.Append(rng.UniformDouble(-999.99, 9999.99));
      segment.Append(kSegments[rng.Uniform(0, 4)]);
      comment.Append(Comment(&rng));
    }
    auto schema = fusion::schema(
        {Field("c_custkey", int64(), false), Field("c_name", utf8(), false),
         Field("c_address", utf8(), false), Field("c_nationkey", int64(), false),
         Field("c_phone", utf8(), false), Field("c_acctbal", kMoney, false),
         Field("c_mktsegment", utf8(), false), Field("c_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(path("customer"), schema,
                                  {Done(&key), Done(&name), Done(&address),
                                   Done(&nationkey), Done(&phone), acctbal.Finish(),
                                   Done(&segment), Done(&comment)},
                                  n_customer, kTpchRowGroup));
  }
  {  // part
    Rng rng(Mix(seed, 15));
    Int64Builder key, size;
    StringBuilder name, mfgr, brand, type, container, comment;
    Float64Builder retail;
    for (int64_t p = 1; p <= n_part; ++p) {
      key.Append(p);
      std::string pname = kColors[rng.Uniform(0, 15)];
      pname += " ";
      pname += kColors[rng.Uniform(0, 15)];
      name.Append(pname);
      int m = static_cast<int>(rng.Uniform(1, 5));
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Manufacturer#%d", m);
      mfgr.Append(buf);
      std::snprintf(buf, sizeof(buf), "Brand#%d%d", m, static_cast<int>(rng.Uniform(1, 5)));
      brand.Append(buf);
      std::string t = kTypes1[rng.Uniform(0, 5)];
      t += " ";
      t += kTypes2[rng.Uniform(0, 4)];
      t += " ";
      t += kTypes3[rng.Uniform(0, 4)];
      type.Append(t);
      size.Append(rng.Uniform(1, 50));
      std::string cont = kContainers1[rng.Uniform(0, 4)];
      cont += " ";
      cont += kContainers2[rng.Uniform(0, 7)];
      container.Append(cont);
      retail.Append(RetailPrice(p));
      comment.Append(Comment(&rng));
    }
    auto schema = fusion::schema(
        {Field("p_partkey", int64(), false), Field("p_name", utf8(), false),
         Field("p_mfgr", utf8(), false), Field("p_brand", utf8(), false),
         Field("p_type", utf8(), false), Field("p_size", int64(), false),
         Field("p_container", utf8(), false), Field("p_retailprice", float64(), false),
         Field("p_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(path("part"), schema,
                                  {Done(&key), Done(&name), Done(&mfgr), Done(&brand),
                                   Done(&type), Done(&size), Done(&container),
                                   Done(&retail), Done(&comment)},
                                  n_part, kTpchRowGroup));
  }
  {  // partsupp: four suppliers per part
    Rng rng(Mix(seed, 16));
    Int64Builder partkey, suppkey, availqty;
    MoneyBuilder supplycost;
    StringBuilder comment;
    for (int64_t p = 1; p <= n_part; ++p) {
      for (int s = 0; s < 4; ++s) {
        partkey.Append(p);
        suppkey.Append((p + s * (n_supplier / 4 + 1)) % n_supplier + 1);
        availqty.Append(rng.Uniform(1, 9999));
        supplycost.Append(rng.UniformDouble(1.0, 1000.0));
        comment.Append(Comment(&rng));
      }
    }
    auto schema = fusion::schema(
        {Field("ps_partkey", int64(), false), Field("ps_suppkey", int64(), false),
         Field("ps_availqty", int64(), false), Field("ps_supplycost", kMoney, false),
         Field("ps_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(path("partsupp"), schema,
                                  {Done(&partkey), Done(&suppkey), Done(&availqty),
                                   supplycost.Finish(), Done(&comment)},
                                  n_part * 4, kTpchRowGroup));
  }
  {  // orders + lineitem
    Rng rng(Mix(seed, 17));
    const int32_t start_date = compute::DaysFromCivil(1992, 1, 1);
    const int32_t end_date = compute::DaysFromCivil(1998, 8, 2);
    const int32_t cutoff = compute::DaysFromCivil(1995, 6, 17);

    Int64Builder o_key, o_custkey, o_shippriority;
    StringBuilder o_status, o_priority, o_clerk, o_comment;
    MoneyBuilder o_total;
    Date32Builder o_date;
    Int64Builder l_orderkey, l_partkey, l_suppkey, l_linenumber;
    Float64Builder l_quantity;
    MoneyBuilder l_extendedprice, l_discount, l_tax;
    StringBuilder l_returnflag, l_linestatus, l_shipinstruct, l_shipmode, l_comment;
    Date32Builder l_shipdate, l_commitdate, l_receiptdate;
    int64_t lineitem_rows = 0;

    for (int64_t o = 1; o <= n_orders; ++o) {
      o_key.Append(o);
      o_custkey.Append(rng.Uniform(1, n_customer));
      int32_t odate = static_cast<int32_t>(rng.Uniform(start_date, end_date - 151));
      o_date.Append(odate);
      o_priority.Append(kPriorities[rng.Uniform(0, 4)]);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Clerk#%09d", static_cast<int>(rng.Uniform(1, 1000)));
      o_clerk.Append(buf);
      o_shippriority.Append(0);
      o_comment.Append(Comment(&rng));

      int n_lines = static_cast<int>(rng.Uniform(1, 7));
      double total = 0;
      int open_lines = 0;
      for (int l = 1; l <= n_lines; ++l) {
        l_orderkey.Append(o);
        int64_t pk = rng.Uniform(1, n_part);
        l_partkey.Append(pk);
        l_suppkey.Append((pk + rng.Uniform(0, 3) * (n_supplier / 4 + 1)) % n_supplier + 1);
        l_linenumber.Append(l);
        double qty = static_cast<double>(rng.Uniform(1, 50));
        l_quantity.Append(qty);
        double price = qty * RetailPrice(pk) / 10.0;
        l_extendedprice.Append(price);
        double discount = rng.Uniform(0, 10) / 100.0;
        l_discount.Append(discount);
        l_tax.Append(rng.Uniform(0, 8) / 100.0);
        int32_t ship = odate + static_cast<int32_t>(rng.Uniform(1, 121));
        int32_t commit = odate + static_cast<int32_t>(rng.Uniform(30, 90));
        int32_t receipt = ship + static_cast<int32_t>(rng.Uniform(1, 30));
        l_shipdate.Append(ship);
        l_commitdate.Append(commit);
        l_receiptdate.Append(receipt);
        if (receipt <= cutoff) {
          l_returnflag.Append(rng.Next() % 2 == 0 ? "R" : "A");
        } else {
          l_returnflag.Append("N");
        }
        if (ship > cutoff) {
          l_linestatus.Append("O");
          ++open_lines;
        } else {
          l_linestatus.Append("F");
        }
        l_shipinstruct.Append(kInstructs[rng.Uniform(0, 3)]);
        l_shipmode.Append(kShipModes[rng.Uniform(0, 6)]);
        l_comment.Append(Comment(&rng));
        total += price * (1 - discount);
        ++lineitem_rows;
      }
      o_total.Append(total);
      o_status.Append(open_lines == n_lines ? "O" : (open_lines == 0 ? "F" : "P"));
    }
    auto orders_schema = fusion::schema(
        {Field("o_orderkey", int64(), false), Field("o_custkey", int64(), false),
         Field("o_orderstatus", utf8(), false), Field("o_totalprice", kMoney, false),
         Field("o_orderdate", date32(), false), Field("o_orderpriority", utf8(), false),
         Field("o_clerk", utf8(), false), Field("o_shippriority", int64(), false),
         Field("o_comment", utf8(), false)});
    FUSION_RETURN_NOT_OK(WriteFpq(
        path("orders"), orders_schema,
        {Done(&o_key), Done(&o_custkey), Done(&o_status), o_total.Finish(), Done(&o_date),
         Done(&o_priority), Done(&o_clerk), Done(&o_shippriority), Done(&o_comment)},
        n_orders, kTpchRowGroup));
    auto lineitem_schema = fusion::schema(
        {Field("l_orderkey", int64(), false), Field("l_partkey", int64(), false),
         Field("l_suppkey", int64(), false), Field("l_linenumber", int64(), false),
         Field("l_quantity", float64(), false), Field("l_extendedprice", kMoney, false),
         Field("l_discount", kMoney, false), Field("l_tax", kMoney, false),
         Field("l_returnflag", utf8(), false), Field("l_linestatus", utf8(), false),
         Field("l_shipdate", date32(), false), Field("l_commitdate", date32(), false),
         Field("l_receiptdate", date32(), false), Field("l_shipinstruct", utf8(), false),
         Field("l_shipmode", utf8(), false), Field("l_comment", utf8(), false)});
    std::vector<ArrayPtr> lineitem = {
        Done(&l_orderkey),      Done(&l_partkey),       Done(&l_suppkey),
        Done(&l_linenumber),    Done(&l_quantity),      l_extendedprice.Finish(),
        l_discount.Finish(),    l_tax.Finish(),         Done(&l_returnflag),
        Done(&l_linestatus),    Done(&l_shipdate),      Done(&l_commitdate),
        Done(&l_receiptdate),   Done(&l_shipinstruct),  Done(&l_shipmode),
        Done(&l_comment)};
    FUSION_RETURN_NOT_OK(
        WriteFpq(path("lineitem"), lineitem_schema, lineitem, lineitem_rows, kTpchRowGroup));
  }
  std::vector<std::string> names;
  for (const auto& t : TpchTables()) names.push_back(t + ".fpq");
  return names;
}

// ------------------------------------------------------------ ClickBench

namespace {

const char* kSearchWords[] = {"weather", "news",  "maps",  "video",  "translate", "games",
                              "mail",    "music", "hotel", "flight", "recipe",    "football"};
const char* kPhoneModels[] = {"", "", "", "", "", "", "", "",
                              "iphone", "galaxy", "pixel", "nokia"};

}  // namespace

Result<std::vector<std::string>> GenerateHits(uint64_t seed, int64_t rows, int files,
                                              const std::string& dir) {
  auto schema = fusion::schema({
      Field("WatchID", int64(), false),        Field("UserID", int64(), false),
      Field("CounterID", int64(), false),      Field("AdvEngineID", int64(), false),
      Field("RegionID", int64(), false),       Field("SearchPhrase", utf8(), false),
      Field("SearchEngineID", int64(), false), Field("URL", utf8(), false),
      Field("Referer", utf8(), false),         Field("Title", utf8(), false),
      Field("EventDate", date32(), false),     Field("EventTime", timestamp(), false),
      Field("ResolutionWidth", int64(), false), Field("IsRefresh", int64(), false),
      Field("MobilePhoneModel", utf8(), false),
  });
  const int64_t rows_per_file = rows / files;
  const int64_t num_users = std::max<int64_t>(rows / 3, 100);
  const int64_t num_urls = std::max<int64_t>(rows / 6, 100);
  Zipf user_zipf(std::min<int64_t>(num_users, 100000), 1.05);
  Zipf url_zipf(std::min<int64_t>(num_urls, 100000), 1.1);
  const int32_t base_date = compute::DaysFromCivil(2013, 7, 1);
  std::vector<std::string> names;
  for (int f = 0; f < files; ++f) {
    Rng rng(Mix(seed, 100 + static_cast<uint64_t>(f)));
    Int64Builder watch_id, user_id, counter_id, adv_engine, region, search_engine,
        resolution, is_refresh;
    StringBuilder phrase, url, referer, title, phone;
    Date32Builder event_date;
    TimestampBuilder event_time;
    for (int64_t r = 0; r < rows_per_file; ++r) {
      const int64_t global_row = f * rows_per_file + r;
      watch_id.Append(static_cast<int64_t>(rng.Next() >> 1));
      // Zipfian head plus uniform tail: about rows/3 distinct users.
      int64_t uid = (rng.Next() % 4 == 0) ? user_zipf.Sample(&rng)
                                          : rng.Uniform(0, num_users - 1);
      user_id.Append(1000000000LL + uid);
      counter_id.Append(rng.Uniform(1, 2000));
      // About 5% of rows come from an ad engine, in bursts.
      const bool ad_burst = (global_row / 2048) % 20 == 0;
      adv_engine.Append(ad_burst && rng.Next() % 2 == 0 ? rng.Uniform(1, 20) : 0);
      region.Append(rng.Uniform(1, 5000));
      if (rng.Next() % 10 == 0) {  // about 10% of rows carry a search phrase
        std::string p = kSearchWords[rng.Uniform(0, 11)];
        if (rng.Next() % 3 == 0) {
          p += " ";
          p += kSearchWords[rng.Uniform(0, 11)];
        }
        phrase.Append(p);
      } else {
        phrase.Append("");
      }
      search_engine.Append(rng.Next() % 10 == 0 ? rng.Uniform(1, 60) : 0);
      int64_t url_id = (rng.Next() % 3 == 0) ? url_zipf.Sample(&rng)
                                             : rng.Uniform(0, num_urls - 1);
      url.Append("http://example.com/page/" + std::to_string(url_id) +
                 (url_id % 17 == 0 ? "/google/ads" : ""));
      referer.Append(rng.Next() % 2 == 0
                         ? ""
                         : "http://ref.example.org/" + std::to_string(rng.Uniform(0, 9999)));
      title.Append("Title " + std::string(kSearchWords[rng.Uniform(0, 11)]) + " " +
                   std::to_string(url_id % 1000));
      int32_t date = base_date + static_cast<int32_t>(global_row * 30 / rows);
      event_date.Append(date);
      // Whole seconds plus the row number as microseconds: unique per row.
      event_time.Append((static_cast<int64_t>(date) * 86400 + rng.Uniform(0, 86399)) *
                            1000000LL +
                        global_row % 1000000);
      resolution.Append(rng.Uniform(0, 4) == 0 ? 0 : rng.Uniform(800, 2560));
      is_refresh.Append(rng.Next() % 50 == 0 ? 1 : 0);
      phone.Append(kPhoneModels[rng.Uniform(0, 11)]);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "hits_%03d.fpq", f);
    FUSION_RETURN_NOT_OK(WriteFpq(
        dir + "/" + name, schema,
        {Done(&watch_id), Done(&user_id), Done(&counter_id), Done(&adv_engine),
         Done(&region), Done(&phrase), Done(&search_engine), Done(&url), Done(&referer),
         Done(&title), Done(&event_date), Done(&event_time), Done(&resolution),
         Done(&is_refresh), Done(&phone)},
        rows_per_file, 64 * 1024));
    names.push_back(name);
  }
  return names;
}

// ------------------------------------------------------------------ H2O

Result<std::vector<std::string>> GenerateH2o(uint64_t seed, int64_t rows, int64_t k,
                                             const std::string& dir) {
  const std::string path = dir + "/h2o.csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  std::fputs("id1,id2,id3,id4,id5,id6,v1,v2,v3\n", f);
  Rng rng(Mix(seed, 200));
  const int64_t big_k = std::max<int64_t>(rows / k, 1);
  char line[160];
  for (int64_t r = 0; r < rows; ++r) {
    const long long id1 = rng.Uniform(1, k), id2 = rng.Uniform(1, k);
    const long long id3 = rng.Uniform(1, big_k);
    const long long id4 = rng.Uniform(1, k), id5 = rng.Uniform(1, k);
    const long long id6 = rng.Uniform(1, big_k);
    const long long v1 = rng.Uniform(1, 5), v2 = rng.Uniform(1, 15);
    const double v3 = rng.UniformDouble(0, 100);
    std::snprintf(line, sizeof(line), "id%03lld,id%03lld,id%010lld,%lld,%lld,%lld,%lld,%lld,%.6f\n",
                  id1, id2, id3, id4, id5, id6, v1, v2, v3);
    std::fputs(line, f);
  }
  if (std::fclose(f) != 0) return Status::IOError("short write to " + path);
  return std::vector<std::string>{"h2o.csv"};
}

// -------------------------------------------------------------- serving

Result<std::vector<std::string>> GenerateServing(uint64_t seed, int64_t rows,
                                                 const std::string& dir) {
  Rng rng(Mix(seed, 300));
  Int64Builder id, v;
  StringBuilder grp;
  Float64Builder f;
  for (int64_t i = 0; i < rows; ++i) {
    id.Append(i);
    grp.Append("grp" + std::to_string(rng.Next() % 100));
    v.Append(static_cast<int64_t>(rng.Next() % 1000));
    f.Append(static_cast<double>(rng.Next() % 100000) / 100.0);
  }
  auto schema = fusion::schema({Field("id", int64(), false), Field("grp", utf8(), false),
                                Field("v", int64(), false), Field("f", float64(), false)});
  FUSION_RETURN_NOT_OK(WriteFpq(dir + "/t.fpq", schema,
                                {Done(&id), Done(&grp), Done(&v), Done(&f)}, rows,
                                64 * 1024));
  return std::vector<std::string>{"t.fpq"};
}

}  // namespace perfbench
