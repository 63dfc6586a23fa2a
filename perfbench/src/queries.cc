#include "queries.h"

namespace perfbench {

const std::vector<Query>& TpchQueries() {
  static const std::vector<Query> kQueries = {
      {1, R"(
SELECT l_returnflag, l_linestatus, sum(l_quantity) AS sum_qty,
       sum(l_extendedprice) AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity) AS avg_qty, avg(l_extendedprice) AS avg_price,
       avg(l_discount) AS avg_disc, count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= date '1998-12-01' - interval '90' day
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus)"},
      {2, R"(
WITH min_cost AS (
  SELECT ps_partkey AS mc_partkey, min(ps_supplycost) AS mc
  FROM partsupp, supplier, nation, region
  WHERE s_suppkey = ps_suppkey AND s_nationkey = n_nationkey
    AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
  GROUP BY ps_partkey)
SELECT s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone,
       s_comment
FROM part, supplier, partsupp, nation, region, min_cost
WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15
  AND p_type LIKE '%BRASS' AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey AND r_name = 'EUROPE'
  AND ps_partkey = mc_partkey AND ps_supplycost = mc
ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
LIMIT 100)"},
      {3, R"(
SELECT l_orderkey, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       o_orderdate, o_shippriority
FROM customer, orders, lineitem
WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
  AND l_orderkey = o_orderkey AND o_orderdate < date '1995-03-15'
  AND l_shipdate > date '1995-03-15'
GROUP BY l_orderkey, o_orderdate, o_shippriority
ORDER BY revenue DESC, o_orderdate
LIMIT 10)"},
      {4, R"(
SELECT o_orderpriority, count(*) AS order_count
FROM orders
WHERE o_orderdate >= date '1993-07-01' AND o_orderdate < date '1993-10-01'
  AND o_orderkey IN (SELECT l_orderkey FROM lineitem
                     WHERE l_commitdate < l_receiptdate)
GROUP BY o_orderpriority
ORDER BY o_orderpriority)"},
      {5, R"(
SELECT n_name, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA' AND o_orderdate >= date '1994-01-01'
  AND o_orderdate < date '1995-01-01'
GROUP BY n_name
ORDER BY revenue DESC)"},
      {6, R"(
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24)"},
      {7, R"(
SELECT supp_nation, cust_nation, l_year, sum(volume) AS revenue
FROM (SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
             date_part('year', l_shipdate) AS l_year,
             l_extendedprice * (1 - l_discount) AS volume
      FROM supplier, lineitem, orders, customer, nation n1, nation n2
      WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
        AND c_custkey = o_custkey AND s_nationkey = n1.n_nationkey
        AND c_nationkey = n2.n_nationkey
        AND ((n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')
             OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE'))
        AND l_shipdate BETWEEN date '1995-01-01' AND date '1996-12-31')
      shipping
GROUP BY supp_nation, cust_nation, l_year
ORDER BY supp_nation, cust_nation, l_year)"},
      {8, R"(
SELECT o_year,
       sum(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) / sum(volume)
           AS mkt_share
FROM (SELECT date_part('year', o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount) AS volume,
             n2.n_name AS nation
      FROM part, supplier, lineitem, orders, customer, nation n1, nation n2,
           region
      WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey
        AND l_orderkey = o_orderkey AND o_custkey = c_custkey
        AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
        AND r_name = 'AMERICA' AND s_nationkey = n2.n_nationkey
        AND o_orderdate BETWEEN date '1995-01-01' AND date '1996-12-31'
        AND p_type = 'ECONOMY ANODIZED STEEL') all_nations
GROUP BY o_year
ORDER BY o_year)"},
      {9, R"(
SELECT nation, o_year, sum(amount) AS sum_profit
FROM (SELECT n_name AS nation, date_part('year', o_orderdate) AS o_year,
             l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity
                 AS amount
      FROM part, supplier, lineitem, partsupp, orders, nation
      WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
        AND ps_partkey = l_partkey AND p_partkey = l_partkey
        AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
        AND p_name LIKE '%green%') profit
GROUP BY nation, o_year
ORDER BY nation, o_year DESC)"},
      {10, R"(
SELECT c_custkey, c_name, sum(l_extendedprice * (1 - l_discount)) AS revenue,
       c_acctbal, n_name, c_address, c_phone, c_comment
FROM customer, orders, lineitem, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND o_orderdate >= date '1993-10-01' AND o_orderdate < date '1994-01-01'
  AND l_returnflag = 'R' AND c_nationkey = n_nationkey
GROUP BY c_custkey, c_name, c_acctbal, c_phone, n_name, c_address, c_comment
ORDER BY revenue DESC
LIMIT 20)"},
      {11, R"(
SELECT ps_partkey, sum(ps_supplycost * ps_availqty) AS value
FROM partsupp, supplier, nation
WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
  AND n_name = 'GERMANY'
GROUP BY ps_partkey
HAVING sum(ps_supplycost * ps_availqty) >
       (SELECT sum(ps_supplycost * ps_availqty) * 0.0001
        FROM partsupp, supplier, nation
        WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey
          AND n_name = 'GERMANY')
ORDER BY value DESC)"},
      {12, R"(
SELECT l_shipmode,
       sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
                THEN 1 ELSE 0 END) AS high_line_count,
       sum(CASE WHEN o_orderpriority <> '1-URGENT'
                AND o_orderpriority <> '2-HIGH'
                THEN 1 ELSE 0 END) AS low_line_count
FROM orders, lineitem
WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
  AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
  AND l_receiptdate >= date '1994-01-01'
  AND l_receiptdate < date '1995-01-01'
GROUP BY l_shipmode
ORDER BY l_shipmode)"},
      {13, R"(
SELECT c_count, count(*) AS custdist
FROM (SELECT c_custkey, count(o_orderkey) AS c_count
      FROM customer LEFT JOIN orders
        ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
      GROUP BY c_custkey) c_orders
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC)"},
      {14, R"(
SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
                         THEN l_extendedprice * (1 - l_discount)
                         ELSE 0 END) /
       sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
FROM lineitem, part
WHERE l_partkey = p_partkey AND l_shipdate >= date '1995-09-01'
  AND l_shipdate < date '1995-10-01')"},
      {15, R"(
WITH revenue AS (
  SELECT l_suppkey AS supplier_no,
         sum(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= date '1996-01-01' AND l_shipdate < date '1996-04-01'
  GROUP BY l_suppkey)
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, revenue
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT max(total_revenue) FROM revenue)
ORDER BY s_suppkey)"},
      {16, R"(
SELECT p_brand, p_type, p_size, count(DISTINCT ps_suppkey) AS supplier_cnt
FROM partsupp, part
WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#45'
  AND p_type NOT LIKE 'MEDIUM POLISHED%'
  AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
  AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier
                         WHERE s_comment LIKE '%Customer%Complaints%')
GROUP BY p_brand, p_type, p_size
ORDER BY supplier_cnt DESC, p_brand, p_type, p_size)"},
      {17, R"(
WITH avg_qty AS (
  SELECT l_partkey AS ap, 0.2 * avg(l_quantity) AS limit_qty
  FROM lineitem GROUP BY l_partkey)
SELECT sum(l_extendedprice) / 7.0 AS avg_yearly
FROM lineitem, part, avg_qty
WHERE p_partkey = l_partkey AND p_brand = 'Brand#23'
  AND p_container = 'MED BOX' AND ap = l_partkey
  AND l_quantity < limit_qty)"},
      {18, R"(
SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
       sum(l_quantity) AS total_qty
FROM customer, orders, lineitem
WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                     GROUP BY l_orderkey HAVING sum(l_quantity) > 250)
  AND c_custkey = o_custkey AND o_orderkey = l_orderkey
GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
ORDER BY o_totalprice DESC, o_orderdate
LIMIT 100)"},
      {19, R"(
SELECT sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, part
WHERE p_partkey = l_partkey AND l_shipinstruct = 'DELIVER IN PERSON'
  AND ((p_brand = 'Brand#12' AND l_quantity BETWEEN 1 AND 11
        AND p_size BETWEEN 1 AND 5 AND l_shipmode IN ('AIR', 'REG AIR'))
    OR (p_brand = 'Brand#23' AND l_quantity BETWEEN 10 AND 20
        AND p_size BETWEEN 1 AND 10 AND l_shipmode IN ('AIR', 'REG AIR'))
    OR (p_brand = 'Brand#34' AND l_quantity BETWEEN 20 AND 30
        AND p_size BETWEEN 1 AND 15 AND l_shipmode IN ('AIR', 'REG AIR'))))"},
      {20, R"(
WITH excess AS (
  SELECT l_partkey AS ep, l_suppkey AS es, 0.5 * sum(l_quantity) AS half_qty
  FROM lineitem
  WHERE l_shipdate >= date '1994-01-01' AND l_shipdate < date '1995-01-01'
  GROUP BY l_partkey, l_suppkey)
SELECT s_name, s_address
FROM supplier, nation
WHERE s_suppkey IN (SELECT ps_suppkey
                    FROM partsupp, excess
                    WHERE ps_partkey = ep AND ps_suppkey = es
                      AND ps_partkey IN (SELECT p_partkey FROM part
                                         WHERE p_name LIKE 'forest%')
                      AND ps_availqty > half_qty)
  AND s_nationkey = n_nationkey AND n_name = 'CANADA'
ORDER BY s_name)"},
      {21, R"(
WITH l_counts AS (
  SELECT l_orderkey AS lo, count(DISTINCT l_suppkey) AS total_supp,
         count(DISTINCT CASE WHEN l_receiptdate > l_commitdate
                             THEN l_suppkey END) AS late_supp
  FROM lineitem GROUP BY l_orderkey)
SELECT s_name, count(*) AS numwait
FROM supplier, lineitem, orders, nation, l_counts
WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey
  AND o_orderstatus = 'F' AND l_receiptdate > l_commitdate
  AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
  AND lo = l_orderkey AND total_supp > 1 AND late_supp = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT 100)"},
      {22, R"(
WITH avg_bal AS (
  SELECT avg(c_acctbal) AS ab FROM customer
  WHERE c_acctbal > 0.00
    AND substr(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17'))
SELECT cntrycode, count(*) AS numcust, sum(acctbal) AS totacctbal
FROM (SELECT substr(c_phone, 1, 2) AS cntrycode, c_acctbal AS acctbal
      FROM customer, avg_bal
      WHERE substr(c_phone, 1, 2) IN ('13', '31', '23', '29', '30', '18', '17')
        AND c_acctbal > ab
        AND c_custkey NOT IN (SELECT o_custkey FROM orders)) custsale
GROUP BY cntrycode
ORDER BY cntrycode)"},
  };
  return kQueries;
}

const std::vector<Query>& ClickBenchQueries() {
  // Q35 of the original set groups by ClientIP, which the synthetic
  // hits schema does not have; the other 42 run.
  static const std::vector<Query> kQueries = {
      {1,
       "SELECT count(*) FROM hits"},
      {2,
       "SELECT count(*) FROM hits WHERE AdvEngineID <> 0"},
      {3,
       "SELECT sum(AdvEngineID), count(*), avg(ResolutionWidth) FROM hits"},
      {4,
       "SELECT avg(UserID) FROM hits"},
      {5,
       "SELECT count(DISTINCT UserID) FROM hits"},
      {6,
       "SELECT count(DISTINCT SearchPhrase) FROM hits"},
      {7,
       "SELECT min(EventDate), max(EventDate) FROM hits"},
      {8,
       "SELECT AdvEngineID, count(*) FROM hits WHERE AdvEngineID <> 0 "
       "GROUP BY AdvEngineID ORDER BY count(*) DESC"},
      {9,
       "SELECT RegionID, count(DISTINCT UserID) AS u FROM hits GROUP BY "
       "RegionID ORDER BY u DESC LIMIT 10"},
      {10,
       "SELECT RegionID, sum(AdvEngineID), count(*) AS c, "
       "avg(ResolutionWidth), count(DISTINCT UserID) FROM hits GROUP BY "
       "RegionID ORDER BY c DESC LIMIT 10"},
      {11,
       "SELECT MobilePhoneModel, count(DISTINCT UserID) AS u FROM hits "
       "WHERE MobilePhoneModel <> '' GROUP BY MobilePhoneModel ORDER BY u "
       "DESC LIMIT 10"},
      {12,
       "SELECT SearchEngineID, MobilePhoneModel, count(DISTINCT UserID) AS "
       "u FROM hits WHERE MobilePhoneModel <> '' GROUP BY SearchEngineID, "
       "MobilePhoneModel ORDER BY u DESC LIMIT 10"},
      {13,
       "SELECT SearchPhrase, count(*) AS c FROM hits WHERE SearchPhrase <> "
       "'' GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10"},
      {14,
       "SELECT SearchPhrase, count(DISTINCT UserID) AS u FROM hits WHERE "
       "SearchPhrase <> '' GROUP BY SearchPhrase ORDER BY u DESC LIMIT 10"},
      {15,
       "SELECT SearchEngineID, SearchPhrase, count(*) AS c FROM hits WHERE "
       "SearchPhrase <> '' GROUP BY SearchEngineID, SearchPhrase ORDER BY "
       "c DESC LIMIT 10"},
      {16,
       "SELECT UserID, count(*) FROM hits GROUP BY UserID ORDER BY "
       "count(*) DESC LIMIT 10"},
      {17,
       "SELECT UserID, SearchPhrase, count(*) FROM hits GROUP BY UserID, "
       "SearchPhrase ORDER BY count(*) DESC LIMIT 10"},
      {18,
       "SELECT UserID, SearchPhrase, count(*) FROM hits GROUP BY UserID, "
       "SearchPhrase LIMIT 10"},
      {19,
       "SELECT UserID, date_part('minute', EventTime) AS m, SearchPhrase, "
       "count(*) FROM hits GROUP BY UserID, m, SearchPhrase ORDER BY "
       "count(*) DESC LIMIT 10"},
      {20,
       "SELECT UserID FROM hits WHERE UserID = 1000000435"},
      {21,
       "SELECT count(*) FROM hits WHERE URL LIKE '%google%'"},
      {22,
       "SELECT SearchPhrase, min(URL), count(*) AS c FROM hits WHERE URL "
       "LIKE '%google%' AND SearchPhrase <> '' GROUP BY SearchPhrase ORDER "
       "BY c DESC LIMIT 10"},
      {23,
       "SELECT SearchPhrase, min(URL), min(Title), count(*) AS c, "
       "count(DISTINCT UserID) FROM hits WHERE Title LIKE '%news%' AND URL "
       "NOT LIKE '%ads%' AND SearchPhrase <> '' GROUP BY SearchPhrase "
       "ORDER BY c DESC LIMIT 10"},
      {24,
       "SELECT * FROM hits WHERE URL LIKE '%google%' ORDER BY EventTime "
       "LIMIT 10"},
      {25,
       "SELECT SearchPhrase FROM hits WHERE SearchPhrase <> '' ORDER BY "
       "EventTime LIMIT 10"},
      {26,
       "SELECT SearchPhrase FROM hits WHERE SearchPhrase <> '' ORDER BY "
       "SearchPhrase LIMIT 10"},
      {27,
       "SELECT SearchPhrase FROM hits WHERE SearchPhrase <> '' ORDER BY "
       "EventTime, SearchPhrase LIMIT 10"},
      {28,
       "SELECT CounterID, avg(length(URL)) AS l, count(*) AS c FROM hits "
       "WHERE URL <> '' GROUP BY CounterID HAVING count(*) > 50 ORDER BY l "
       "DESC LIMIT 25"},
      {29,
       "SELECT replace(Referer, 'http://', '') AS k, avg(length(Referer)) "
       "AS l, count(*) AS c FROM hits WHERE Referer <> '' GROUP BY k "
       "HAVING count(*) > 10 ORDER BY l DESC LIMIT 25"},
      {30,
       "SELECT sum(ResolutionWidth), sum(ResolutionWidth + 1), "
       "sum(ResolutionWidth + 2), sum(ResolutionWidth + 3), "
       "sum(ResolutionWidth + 4), sum(ResolutionWidth + 5), "
       "sum(ResolutionWidth + 6), sum(ResolutionWidth + 7), "
       "sum(ResolutionWidth + 8), sum(ResolutionWidth + 9) FROM hits"},
      {31,
       "SELECT SearchEngineID, IsRefresh, count(*) AS c FROM hits GROUP BY "
       "SearchEngineID, IsRefresh ORDER BY c DESC LIMIT 10"},
      {32,
       "SELECT WatchID % 1024 AS w, IsRefresh, count(*) AS c, "
       "sum(ResolutionWidth) FROM hits GROUP BY w, IsRefresh ORDER BY c "
       "DESC LIMIT 10"},
      {33,
       "SELECT URL, count(*) AS c FROM hits GROUP BY URL ORDER BY c DESC "
       "LIMIT 10"},
      {34,
       "SELECT 1 AS one, URL, count(*) AS c FROM hits GROUP BY one, URL "
       "ORDER BY c DESC LIMIT 10"},
      {36,
       "SELECT URL, count(*) AS c FROM hits WHERE IsRefresh = 0 GROUP BY "
       "URL ORDER BY c DESC LIMIT 10"},
      {37,
       "SELECT Title, count(*) AS c FROM hits WHERE IsRefresh = 0 AND "
       "Title <> '' GROUP BY Title ORDER BY c DESC LIMIT 10"},
      {38,
       "SELECT URL FROM hits WHERE IsRefresh = 0 AND URL LIKE '%google%' "
       "ORDER BY EventTime LIMIT 10"},
      {39,
       "SELECT SearchPhrase FROM hits WHERE SearchPhrase LIKE '%news%' AND "
       "IsRefresh = 0 ORDER BY EventTime LIMIT 10"},
      {40,
       "SELECT URL, count(*) AS c FROM hits WHERE Referer <> '' GROUP BY "
       "URL ORDER BY c DESC LIMIT 10 OFFSET 100"},
      {41,
       "SELECT RegionID, count(*) AS c FROM hits WHERE EventDate >= date "
       "'2013-07-10' AND EventDate <= date '2013-07-20' GROUP BY RegionID "
       "ORDER BY c DESC LIMIT 10"},
      {42,
       "SELECT SearchPhrase, count(*) AS c FROM hits WHERE EventDate >= "
       "date '2013-07-10' AND EventDate <= date '2013-07-20' AND "
       "SearchPhrase <> '' GROUP BY SearchPhrase ORDER BY c DESC LIMIT 10"},
      {43,
       "SELECT date_part('day', EventDate) AS d, count(*) AS c FROM hits "
       "WHERE EventDate >= date '2013-07-10' AND EventDate <= date "
       "'2013-07-20' GROUP BY d ORDER BY d"},
  };
  return kQueries;
}

const std::vector<Query>& H2oQueries() {
  static const std::vector<Query> kQueries = {
      {1,
       "SELECT id1, sum(v1) AS v1 FROM h2o GROUP BY id1"},
      {2,
       "SELECT id1, id2, sum(v1) AS v1 FROM h2o GROUP BY id1, id2"},
      {3,
       "SELECT id3, sum(v1) AS v1, avg(v3) AS v3 FROM h2o GROUP BY id3"},
      {4,
       "SELECT id4, avg(v1) AS v1, avg(v2) AS v2, avg(v3) AS v3 FROM h2o "
       "GROUP BY id4"},
      {5,
       "SELECT id6, sum(v1) AS v1, sum(v2) AS v2, sum(v3) AS v3 FROM h2o "
       "GROUP BY id6"},
      {6,
       "SELECT id4, id5, median(v3) AS median_v3, stddev(v3) AS sd_v3 FROM "
       "h2o GROUP BY id4, id5"},
      {7,
       "SELECT id3, max(v1) - min(v2) AS range_v1_v2 FROM h2o GROUP BY id3"},
      {8,
       "SELECT id6, v3 FROM (SELECT id6, v3, row_number() OVER (PARTITION "
       "BY id6 ORDER BY v3 DESC) AS rn FROM h2o) ranked WHERE rn <= 2"},
      {9,
       "SELECT id2, id4, power(corr(v1, v2), 2) AS r2 FROM h2o GROUP BY "
       "id2, id4"},
      {10,
       "SELECT id1, id2, id3, id4, id5, id6, sum(v3) AS v3, count(*) AS "
       "cnt FROM h2o GROUP BY id1, id2, id3, id4, id5, id6"},
  };
  return kQueries;
}

}  // namespace perfbench
