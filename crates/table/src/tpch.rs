//! TPC-H-like data generator.
//!
//! The paper evaluates on four TPC-H variants: 1 GB and 100 GB and 1 TB with
//! uniform data, plus a 1 GB variant generated with Zipfian skew (skew
//! factor 3). Materialising hundreds of gigabytes is neither possible nor
//! necessary for the reproduction — compression ratios, query footprints
//! and the cost model all depend on the *distributional* properties of the
//! data and on relative sizes, so this generator produces the same eight
//! tables with the same column structure and realistic value distributions
//! at a configurable (much smaller) scale. Larger paper scales are mapped
//! to proportionally larger scale factors plus metadata-level size scaling
//! in the experiment drivers.

use crate::column::{ColumnData, Table};
use crate::error::TableError;
use crate::schema::{ColumnType, Schema};
use crate::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The eight TPC-H tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpchTable {
    /// Line items of orders (the fact table, ~75% of the data volume).
    Lineitem,
    /// Orders.
    Orders,
    /// Customers.
    Customer,
    /// Parts.
    Part,
    /// Suppliers.
    Supplier,
    /// Part-supplier relation.
    Partsupp,
    /// Nations (25 rows).
    Nation,
    /// Regions (5 rows).
    Region,
}

impl TpchTable {
    /// All tables, in data-volume order.
    pub fn all() -> [TpchTable; 8] {
        [
            TpchTable::Lineitem,
            TpchTable::Orders,
            TpchTable::Partsupp,
            TpchTable::Customer,
            TpchTable::Part,
            TpchTable::Supplier,
            TpchTable::Nation,
            TpchTable::Region,
        ]
    }

    /// Lowercase table name.
    pub fn name(&self) -> &'static str {
        match self {
            TpchTable::Lineitem => "lineitem",
            TpchTable::Orders => "orders",
            TpchTable::Customer => "customer",
            TpchTable::Part => "part",
            TpchTable::Supplier => "supplier",
            TpchTable::Partsupp => "partsupp",
            TpchTable::Nation => "nation",
            TpchTable::Region => "region",
        }
    }

    /// Base row count at scale factor 1.0 (scaled-down TPC-H proportions:
    /// lineitem is ~4x orders, orders is 10x customers, etc.).
    pub(crate) fn base_rows(&self) -> usize {
        match self {
            TpchTable::Lineitem => 6000,
            TpchTable::Orders => 1500,
            TpchTable::Partsupp => 800,
            TpchTable::Customer => 150,
            TpchTable::Part => 200,
            TpchTable::Supplier => 10,
            TpchTable::Nation => 25,
            TpchTable::Region => 5,
        }
    }
}

/// Options controlling generation.
#[derive(Debug, Clone, PartialEq)]
pub struct TpchOptions {
    /// Multiplier on the base row counts (1.0 ≈ a few thousand lineitem rows).
    pub scale_factor: f64,
    /// Zipf exponent applied to categorical/foreign-key value choices.
    /// `None` reproduces the uniform variants; `Some(3.0)` reproduces the
    /// high-skew "TPC-H Skew" variant.
    pub skew: Option<f64>,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for TpchOptions {
    fn default() -> Self {
        TpchOptions {
            scale_factor: 1.0,
            skew: None,
            seed: 42,
        }
    }
}

impl TpchOptions {
    /// Validate the options.
    pub fn validate(&self) -> Result<(), TableError> {
        if !(self.scale_factor > 0.0) || !self.scale_factor.is_finite() {
            return Err(TableError::InvalidOption(format!(
                "scale_factor must be positive and finite, got {}",
                self.scale_factor
            )));
        }
        if let Some(s) = self.skew {
            if !(s >= 0.0) || !s.is_finite() {
                return Err(TableError::InvalidOption(format!(
                    "skew must be non-negative and finite, got {s}"
                )));
            }
        }
        Ok(())
    }
}

const SHIP_MODES: &[&str] = &["AIR", "MAIL", "SHIP", "TRUCK", "RAIL", "FOB", "REG AIR"];
const SHIP_INSTRUCT: &[&str] = &[
    "DELIVER IN PERSON",
    "COLLECT COD",
    "TAKE BACK RETURN",
    "NONE",
];
const RETURN_FLAGS: &[&str] = &["R", "A", "N"];
const LINE_STATUS: &[&str] = &["O", "F"];
const ORDER_STATUS: &[&str] = &["O", "F", "P"];
const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
const SEGMENTS: &[&str] = &[
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const CONTAINERS: &[&str] = &[
    "SM CASE",
    "SM BOX",
    "SM PACK",
    "LG CASE",
    "LG BOX",
    "LG PACK",
    "MED BAG",
    "MED BOX",
    "JUMBO JAR",
    "WRAP CAN",
];
const BRANDS: &[&str] = &[
    "Brand#11", "Brand#12", "Brand#21", "Brand#23", "Brand#34", "Brand#45",
];
const TYPES: &[&str] = &[
    "STANDARD ANODIZED TIN",
    "SMALL PLATED COPPER",
    "MEDIUM BRUSHED NICKEL",
    "ECONOMY BURNISHED STEEL",
    "PROMO POLISHED BRASS",
    "LARGE BURNISHED COPPER",
];
const COLORS: &[&str] = &[
    "almond",
    "azure",
    "beige",
    "blush",
    "chartreuse",
    "coral",
    "cream",
    "dark",
    "forest",
    "ghost",
    "honeydew",
    "ivory",
    "lace",
    "lemon",
    "magenta",
    "navy",
    "olive",
    "peach",
    "plum",
    "rose",
    "saddle",
    "sandy",
    "sienna",
    "smoke",
    "thistle",
    "turquoise",
    "violet",
    "wheat",
];
const NATIONS: &[&str] = &[
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];
const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
const COMMENT_WORDS: &[&str] = &[
    "carefully",
    "quickly",
    "furiously",
    "slyly",
    "blithely",
    "deposits",
    "requests",
    "accounts",
    "packages",
    "instructions",
    "theodolites",
    "platelets",
    "pinto",
    "beans",
    "foxes",
    "ideas",
    "dependencies",
    "excuses",
    "asymptotes",
    "courts",
    "dolphins",
    "sleep",
    "wake",
    "nag",
    "haggle",
    "boost",
    "engage",
    "detect",
    "integrate",
    "among",
    "across",
    "above",
    "final",
    "regular",
    "express",
    "special",
    "pending",
    "ironic",
    "even",
    "bold",
    "unusual",
    "silent",
];

/// TPC-H date range: 1992-01-01 .. 1998-12-01, expressed in days since the
/// generator epoch (1992-01-01).
const DATE_RANGE_DAYS: i64 = 2520;

/// The TPC-H-like generator.
#[derive(Debug, Clone)]
pub struct TpchGenerator {
    options: TpchOptions,
}

/// Internal value sampler that is either uniform or Zipf-skewed.
struct Sampler {
    rng: SmallRng,
    skew: Option<f64>,
    // One Zipf distribution per domain size, built lazily.
    zipfs: std::collections::HashMap<usize, Zipf>,
}

impl Sampler {
    fn new(seed: u64, skew: Option<f64>) -> Self {
        Sampler {
            rng: SmallRng::seed_from_u64(seed),
            skew,
            zipfs: std::collections::HashMap::new(),
        }
    }

    /// Index into a domain of `n` items — uniform or Zipf depending on the
    /// configured skew.
    fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        match self.skew {
            None => self.rng.gen_range(0..n),
            Some(s) => {
                let z = self.zipfs.entry(n).or_insert_with(|| Zipf::new(n, s));
                z.sample(&mut self.rng)
            }
        }
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.index(options.len())]
    }

    fn uniform_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    fn uniform_i64(&mut self, lo: i64, hi: i64) -> i64 {
        self.rng.gen_range(lo..hi)
    }

    fn date(&mut self) -> i64 {
        // Dates are drawn from the ~7 year TPC-H window; under skew, recent
        // dates are favoured (index 0 = most recent) which also mimics the
        // recency effect in enterprise data.
        let offset = self.index(DATE_RANGE_DAYS as usize) as i64;
        DATE_RANGE_DAYS - 1 - offset
    }

    fn comment(&mut self, min_words: usize, max_words: usize) -> String {
        let n = if max_words > min_words {
            min_words + self.index(max_words - min_words)
        } else {
            min_words
        };
        let mut words = Vec::with_capacity(n);
        for _ in 0..n {
            words.push(self.pick(COMMENT_WORDS));
        }
        words.join(" ")
    }

    fn phone(&mut self) -> String {
        format!(
            "{}-{}-{}-{}",
            self.uniform_i64(10, 35),
            self.uniform_i64(100, 999),
            self.uniform_i64(100, 999),
            self.uniform_i64(1000, 9999)
        )
    }
}

impl TpchGenerator {
    /// Create a generator with the given options.
    pub fn new(options: TpchOptions) -> Result<Self, TableError> {
        options.validate()?;
        Ok(TpchGenerator { options })
    }

    /// Generator options.
    pub fn options(&self) -> &TpchOptions {
        &self.options
    }

    /// Row count for a table under the configured scale factor. Nation and
    /// region are fixed-size as in real TPC-H.
    pub fn row_count(&self, table: TpchTable) -> usize {
        match table {
            TpchTable::Nation | TpchTable::Region => table.base_rows(),
            _ => ((table.base_rows() as f64) * self.options.scale_factor).ceil() as usize,
        }
        .max(1)
    }

    /// Generate one table.
    pub fn generate(&self, table: TpchTable) -> Table {
        let seed = self.options.seed ^ (table.name().len() as u64) << 32 ^ table.base_rows() as u64;
        let mut s = Sampler::new(seed, self.options.skew);
        let n = self.row_count(table);
        match table {
            TpchTable::Lineitem => self.lineitem(&mut s, n),
            TpchTable::Orders => self.orders(&mut s, n),
            TpchTable::Customer => self.customer(&mut s, n),
            TpchTable::Part => self.part(&mut s, n),
            TpchTable::Supplier => self.supplier(&mut s, n),
            TpchTable::Partsupp => self.partsupp(&mut s, n),
            TpchTable::Nation => self.nation(),
            TpchTable::Region => self.region(),
        }
    }

    /// Generate all eight tables.
    pub fn generate_all(&self) -> Vec<Table> {
        TpchTable::all().iter().map(|&t| self.generate(t)).collect()
    }

    fn key_domain(&self, table: TpchTable) -> i64 {
        self.row_count(table) as i64
    }

    fn lineitem(&self, s: &mut Sampler, n: usize) -> Table {
        let orders = self.key_domain(TpchTable::Orders);
        let parts = self.key_domain(TpchTable::Part);
        let supps = self.key_domain(TpchTable::Supplier);
        let mut orderkey = Vec::with_capacity(n);
        let mut partkey = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        let mut linenumber = Vec::with_capacity(n);
        let mut quantity = Vec::with_capacity(n);
        let mut extendedprice = Vec::with_capacity(n);
        let mut discount = Vec::with_capacity(n);
        let mut tax = Vec::with_capacity(n);
        let mut returnflag = Vec::with_capacity(n);
        let mut linestatus = Vec::with_capacity(n);
        let mut shipdate = Vec::with_capacity(n);
        let mut commitdate = Vec::with_capacity(n);
        let mut receiptdate = Vec::with_capacity(n);
        let mut shipinstruct = Vec::with_capacity(n);
        let mut shipmode = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for i in 0..n {
            orderkey.push(s.index(orders as usize) as i64 + 1);
            partkey.push(s.index(parts as usize) as i64 + 1);
            suppkey.push(s.index(supps as usize) as i64 + 1);
            linenumber.push((i % 7) as i64 + 1);
            let q = s.uniform_i64(1, 51) as f64;
            quantity.push(q);
            extendedprice.push(q * s.uniform_f64(900.0, 2100.0));
            discount.push((s.index(11) as f64) / 100.0);
            tax.push((s.index(9) as f64) / 100.0);
            returnflag.push(s.pick(RETURN_FLAGS).to_string());
            linestatus.push(s.pick(LINE_STATUS).to_string());
            let ship = s.date();
            shipdate.push(ship);
            commitdate.push((ship + s.uniform_i64(1, 60)).min(DATE_RANGE_DAYS));
            receiptdate.push((ship + s.uniform_i64(1, 30)).min(DATE_RANGE_DAYS));
            shipinstruct.push(s.pick(SHIP_INSTRUCT).to_string());
            shipmode.push(s.pick(SHIP_MODES).to_string());
            comment.push(s.comment(2, 6));
        }
        let schema = Schema::from_pairs(&[
            ("l_orderkey", ColumnType::Int),
            ("l_partkey", ColumnType::Int),
            ("l_suppkey", ColumnType::Int),
            ("l_linenumber", ColumnType::Int),
            ("l_quantity", ColumnType::Float),
            ("l_extendedprice", ColumnType::Float),
            ("l_discount", ColumnType::Float),
            ("l_tax", ColumnType::Float),
            ("l_returnflag", ColumnType::Text),
            ("l_linestatus", ColumnType::Text),
            ("l_shipdate", ColumnType::Date),
            ("l_commitdate", ColumnType::Date),
            ("l_receiptdate", ColumnType::Date),
            ("l_shipinstruct", ColumnType::Text),
            ("l_shipmode", ColumnType::Text),
            ("l_comment", ColumnType::Text),
        ]);
        Table::new(
            "lineitem",
            schema,
            vec![
                ColumnData::Int(orderkey),
                ColumnData::Int(partkey),
                ColumnData::Int(suppkey),
                ColumnData::Int(linenumber),
                ColumnData::Float(quantity),
                ColumnData::Float(extendedprice),
                ColumnData::Float(discount),
                ColumnData::Float(tax),
                ColumnData::Text(returnflag),
                ColumnData::Text(linestatus),
                ColumnData::Date(shipdate),
                ColumnData::Date(commitdate),
                ColumnData::Date(receiptdate),
                ColumnData::Text(shipinstruct),
                ColumnData::Text(shipmode),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn orders(&self, s: &mut Sampler, n: usize) -> Table {
        let customers = self.key_domain(TpchTable::Customer);
        let mut orderkey = Vec::with_capacity(n);
        let mut custkey = Vec::with_capacity(n);
        let mut status = Vec::with_capacity(n);
        let mut totalprice = Vec::with_capacity(n);
        let mut orderdate = Vec::with_capacity(n);
        let mut priority = Vec::with_capacity(n);
        let mut clerk = Vec::with_capacity(n);
        let mut shippriority = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for i in 0..n {
            orderkey.push(i as i64 + 1);
            custkey.push(s.index(customers as usize) as i64 + 1);
            status.push(s.pick(ORDER_STATUS).to_string());
            totalprice.push(s.uniform_f64(1000.0, 450000.0));
            orderdate.push(s.date());
            priority.push(s.pick(PRIORITIES).to_string());
            clerk.push(format!("Clerk#{:09}", s.index(1000)));
            shippriority.push(0);
            comment.push(s.comment(3, 8));
        }
        let schema = Schema::from_pairs(&[
            ("o_orderkey", ColumnType::Int),
            ("o_custkey", ColumnType::Int),
            ("o_orderstatus", ColumnType::Text),
            ("o_totalprice", ColumnType::Float),
            ("o_orderdate", ColumnType::Date),
            ("o_orderpriority", ColumnType::Text),
            ("o_clerk", ColumnType::Text),
            ("o_shippriority", ColumnType::Int),
            ("o_comment", ColumnType::Text),
        ]);
        Table::new(
            "orders",
            schema,
            vec![
                ColumnData::Int(orderkey),
                ColumnData::Int(custkey),
                ColumnData::Text(status),
                ColumnData::Float(totalprice),
                ColumnData::Date(orderdate),
                ColumnData::Text(priority),
                ColumnData::Text(clerk),
                ColumnData::Int(shippriority),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn customer(&self, s: &mut Sampler, n: usize) -> Table {
        let mut custkey = Vec::with_capacity(n);
        let mut name = Vec::with_capacity(n);
        let mut address = Vec::with_capacity(n);
        let mut nationkey = Vec::with_capacity(n);
        let mut phone = Vec::with_capacity(n);
        let mut acctbal = Vec::with_capacity(n);
        let mut segment = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for i in 0..n {
            custkey.push(i as i64 + 1);
            name.push(format!("Customer#{:09}", i + 1));
            address.push(s.comment(2, 4));
            nationkey.push(s.index(NATIONS.len()) as i64);
            phone.push(s.phone());
            acctbal.push(s.uniform_f64(-999.0, 9999.0));
            segment.push(s.pick(SEGMENTS).to_string());
            comment.push(s.comment(4, 10));
        }
        let schema = Schema::from_pairs(&[
            ("c_custkey", ColumnType::Int),
            ("c_name", ColumnType::Text),
            ("c_address", ColumnType::Text),
            ("c_nationkey", ColumnType::Int),
            ("c_phone", ColumnType::Text),
            ("c_acctbal", ColumnType::Float),
            ("c_mktsegment", ColumnType::Text),
            ("c_comment", ColumnType::Text),
        ]);
        Table::new(
            "customer",
            schema,
            vec![
                ColumnData::Int(custkey),
                ColumnData::Text(name),
                ColumnData::Text(address),
                ColumnData::Int(nationkey),
                ColumnData::Text(phone),
                ColumnData::Float(acctbal),
                ColumnData::Text(segment),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn part(&self, s: &mut Sampler, n: usize) -> Table {
        let mut partkey = Vec::with_capacity(n);
        let mut name = Vec::with_capacity(n);
        let mut mfgr = Vec::with_capacity(n);
        let mut brand = Vec::with_capacity(n);
        let mut ptype = Vec::with_capacity(n);
        let mut size = Vec::with_capacity(n);
        let mut container = Vec::with_capacity(n);
        let mut retailprice = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for i in 0..n {
            partkey.push(i as i64 + 1);
            let c1 = s.pick(COLORS);
            let c2 = s.pick(COLORS);
            name.push(format!("{c1} {c2}"));
            mfgr.push(format!("Manufacturer#{}", s.index(5) + 1));
            brand.push(s.pick(BRANDS).to_string());
            ptype.push(s.pick(TYPES).to_string());
            size.push(s.uniform_i64(1, 51));
            container.push(s.pick(CONTAINERS).to_string());
            retailprice.push(900.0 + (i % 1000) as f64 + s.uniform_f64(0.0, 100.0));
            comment.push(s.comment(1, 4));
        }
        let schema = Schema::from_pairs(&[
            ("p_partkey", ColumnType::Int),
            ("p_name", ColumnType::Text),
            ("p_mfgr", ColumnType::Text),
            ("p_brand", ColumnType::Text),
            ("p_type", ColumnType::Text),
            ("p_size", ColumnType::Int),
            ("p_container", ColumnType::Text),
            ("p_retailprice", ColumnType::Float),
            ("p_comment", ColumnType::Text),
        ]);
        Table::new(
            "part",
            schema,
            vec![
                ColumnData::Int(partkey),
                ColumnData::Text(name),
                ColumnData::Text(mfgr),
                ColumnData::Text(brand),
                ColumnData::Text(ptype),
                ColumnData::Int(size),
                ColumnData::Text(container),
                ColumnData::Float(retailprice),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn supplier(&self, s: &mut Sampler, n: usize) -> Table {
        let mut suppkey = Vec::with_capacity(n);
        let mut name = Vec::with_capacity(n);
        let mut address = Vec::with_capacity(n);
        let mut nationkey = Vec::with_capacity(n);
        let mut phone = Vec::with_capacity(n);
        let mut acctbal = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for i in 0..n {
            suppkey.push(i as i64 + 1);
            name.push(format!("Supplier#{:09}", i + 1));
            address.push(s.comment(2, 4));
            nationkey.push(s.index(NATIONS.len()) as i64);
            phone.push(s.phone());
            acctbal.push(s.uniform_f64(-999.0, 9999.0));
            comment.push(s.comment(3, 8));
        }
        let schema = Schema::from_pairs(&[
            ("s_suppkey", ColumnType::Int),
            ("s_name", ColumnType::Text),
            ("s_address", ColumnType::Text),
            ("s_nationkey", ColumnType::Int),
            ("s_phone", ColumnType::Text),
            ("s_acctbal", ColumnType::Float),
            ("s_comment", ColumnType::Text),
        ]);
        Table::new(
            "supplier",
            schema,
            vec![
                ColumnData::Int(suppkey),
                ColumnData::Text(name),
                ColumnData::Text(address),
                ColumnData::Int(nationkey),
                ColumnData::Text(phone),
                ColumnData::Float(acctbal),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn partsupp(&self, s: &mut Sampler, n: usize) -> Table {
        let parts = self.key_domain(TpchTable::Part);
        let supps = self.key_domain(TpchTable::Supplier);
        let mut partkey = Vec::with_capacity(n);
        let mut suppkey = Vec::with_capacity(n);
        let mut availqty = Vec::with_capacity(n);
        let mut supplycost = Vec::with_capacity(n);
        let mut comment = Vec::with_capacity(n);
        for _ in 0..n {
            partkey.push(s.index(parts as usize) as i64 + 1);
            suppkey.push(s.index(supps as usize) as i64 + 1);
            availqty.push(s.uniform_i64(1, 10000));
            supplycost.push(s.uniform_f64(1.0, 1000.0));
            comment.push(s.comment(5, 12));
        }
        let schema = Schema::from_pairs(&[
            ("ps_partkey", ColumnType::Int),
            ("ps_suppkey", ColumnType::Int),
            ("ps_availqty", ColumnType::Int),
            ("ps_supplycost", ColumnType::Float),
            ("ps_comment", ColumnType::Text),
        ]);
        Table::new(
            "partsupp",
            schema,
            vec![
                ColumnData::Int(partkey),
                ColumnData::Int(suppkey),
                ColumnData::Int(availqty),
                ColumnData::Float(supplycost),
                ColumnData::Text(comment),
            ],
        )
        .expect("generator produces consistent columns")
    }

    fn nation(&self) -> Table {
        let n = NATIONS.len();
        let schema = Schema::from_pairs(&[
            ("n_nationkey", ColumnType::Int),
            ("n_name", ColumnType::Text),
            ("n_regionkey", ColumnType::Int),
            ("n_comment", ColumnType::Text),
        ]);
        Table::new(
            "nation",
            schema,
            vec![
                ColumnData::Int((0..n as i64).collect()),
                ColumnData::Text(NATIONS.iter().map(|s| s.to_string()).collect()),
                ColumnData::Int((0..n as i64).map(|i| i % 5).collect()),
                ColumnData::Text(
                    (0..n)
                        .map(|i| {
                            format!(
                                "{} established trading nation",
                                COMMENT_WORDS[i % COMMENT_WORDS.len()]
                            )
                        })
                        .collect(),
                ),
            ],
        )
        .expect("static nation table")
    }

    fn region(&self) -> Table {
        let n = REGIONS.len();
        let schema = Schema::from_pairs(&[
            ("r_regionkey", ColumnType::Int),
            ("r_name", ColumnType::Text),
            ("r_comment", ColumnType::Text),
        ]);
        Table::new(
            "region",
            schema,
            vec![
                ColumnData::Int((0..n as i64).collect()),
                ColumnData::Text(REGIONS.iter().map(|s| s.to_string()).collect()),
                ColumnData::Text(
                    (0..n)
                        .map(|i| {
                            format!(
                                "{} region of commerce",
                                COMMENT_WORDS[i % COMMENT_WORDS.len()]
                            )
                        })
                        .collect(),
                ),
            ],
        )
        .expect("static region table")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{serialize, DataLayout};

    #[test]
    fn all_eight_tables_generate_with_expected_schemas() {
        let gen = TpchGenerator::new(TpchOptions::default()).unwrap();
        let tables = gen.generate_all();
        assert_eq!(tables.len(), 8);
        let lineitem = &tables[0];
        assert_eq!(lineitem.name, "lineitem");
        assert_eq!(lineitem.n_columns(), 16);
        assert_eq!(lineitem.n_rows(), 6000);
        let orders = tables.iter().find(|t| t.name == "orders").unwrap();
        assert_eq!(orders.n_columns(), 9);
        let nation = tables.iter().find(|t| t.name == "nation").unwrap();
        assert_eq!(nation.n_rows(), 25);
        let region = tables.iter().find(|t| t.name == "region").unwrap();
        assert_eq!(region.n_rows(), 5);
    }

    #[test]
    fn scale_factor_scales_row_counts_but_not_fixed_tables() {
        let small = TpchGenerator::new(TpchOptions {
            scale_factor: 0.1,
            ..Default::default()
        })
        .unwrap();
        let big = TpchGenerator::new(TpchOptions {
            scale_factor: 2.0,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(small.row_count(TpchTable::Lineitem), 600);
        assert_eq!(big.row_count(TpchTable::Lineitem), 12000);
        assert_eq!(small.row_count(TpchTable::Nation), 25);
        assert_eq!(big.row_count(TpchTable::Nation), 25);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let opts = TpchOptions {
            scale_factor: 0.05,
            ..Default::default()
        };
        let a = TpchGenerator::new(opts.clone())
            .unwrap()
            .generate(TpchTable::Orders);
        let b = TpchGenerator::new(opts)
            .unwrap()
            .generate(TpchTable::Orders);
        assert_eq!(a, b);
    }

    #[test]
    fn skew_concentrates_foreign_keys() {
        // Under Zipf skew the most common partkey should account for a large
        // share of lineitem rows; under uniform it should not.
        let uniform = TpchGenerator::new(TpchOptions {
            scale_factor: 0.2,
            ..Default::default()
        })
        .unwrap()
        .generate(TpchTable::Lineitem);
        let skewed = TpchGenerator::new(TpchOptions {
            scale_factor: 0.2,
            skew: Some(3.0),
            ..Default::default()
        })
        .unwrap()
        .generate(TpchTable::Lineitem);

        let top_share = |t: &Table| {
            let ColumnData::Int(keys) = t.column_by_name("l_partkey").unwrap() else {
                panic!("partkey should be an int column");
            };
            let mut counts = std::collections::HashMap::new();
            for k in keys {
                *counts.entry(*k).or_insert(0usize) += 1;
            }
            let max = counts.values().copied().max().unwrap_or(0);
            max as f64 / keys.len() as f64
        };
        assert!(
            top_share(&skewed) > 0.5,
            "skewed top share = {}",
            top_share(&skewed)
        );
        assert!(
            top_share(&uniform) < 0.1,
            "uniform top share = {}",
            top_share(&uniform)
        );
    }

    #[test]
    fn skewed_data_is_more_compressible_friendly() {
        // More repetition in the skewed variant means the CSV bytes contain
        // fewer distinct substrings; a cheap proxy is that the dictionary-
        // encoded columnar form shrinks more relative to CSV.
        let uniform = TpchGenerator::new(TpchOptions {
            scale_factor: 0.2,
            ..Default::default()
        })
        .unwrap()
        .generate(TpchTable::Orders);
        let skewed = TpchGenerator::new(TpchOptions {
            scale_factor: 0.2,
            skew: Some(3.0),
            ..Default::default()
        })
        .unwrap()
        .generate(TpchTable::Orders);
        let ratio = |t: &Table| {
            let csv = serialize(t, DataLayout::Csv).len() as f64;
            let col = serialize(t, DataLayout::Columnar).len() as f64;
            col / csv
        };
        assert!(ratio(&skewed) <= ratio(&uniform) + 0.05);
    }

    #[test]
    fn invalid_options_rejected() {
        assert!(TpchGenerator::new(TpchOptions {
            scale_factor: 0.0,
            ..Default::default()
        })
        .is_err());
        assert!(TpchGenerator::new(TpchOptions {
            scale_factor: f64::NAN,
            ..Default::default()
        })
        .is_err());
        assert!(TpchGenerator::new(TpchOptions {
            skew: Some(-2.0),
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn dates_fall_in_tpch_window() {
        let gen = TpchGenerator::new(TpchOptions {
            scale_factor: 0.1,
            ..Default::default()
        })
        .unwrap();
        let li = gen.generate(TpchTable::Lineitem);
        let ColumnData::Date(dates) = li.column_by_name("l_shipdate").unwrap() else {
            panic!("shipdate should be a date column");
        };
        assert!(dates.iter().all(|&d| (0..=DATE_RANGE_DAYS).contains(&d)));
    }
}
