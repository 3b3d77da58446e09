// Package tpch generates deterministic TPC-H-shaped data. The paper
// demonstrates Stethoscope on TPC-H queries; the official dbgen tool and
// its data are replaced here by a synthetic generator that reproduces the
// schema (all eight tables), the key relationships (orderkey/partkey/
// suppkey/custkey foreign keys) and plausible value distributions. Plan
// shapes — the thing Stethoscope visualizes — depend on the schema and
// query, not on exact dbgen values, so this substitution preserves the
// demo's behaviour.
package tpch

import (
	"fmt"
	"math"

	"stethoscope/internal/storage"
)

// Config controls generation. SF is the TPC-H scale factor: SF=1
// corresponds to 6M lineitem rows; the demo and tests use small fractions.
// Seed makes runs reproducible.
type Config struct {
	SF   float64
	Seed uint64
}

// DefaultConfig is the scale used by the examples: about 60k lineitem rows.
//
//stetho:ignore deadexport bench/trace.go's traced serve pass reads its seed until ROADMAP 5(i) gives the harness its own
func DefaultConfig() Config { return Config{SF: 0.01, Seed: 42} }

// splitmix64 is a tiny deterministic PRNG, good enough for synthetic data.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.next() % uint64(n))
}

// rangeInt returns a value in [lo, hi].
func (r *rng) rangeInt(lo, hi int64) int64 { return lo + r.intn(hi-lo+1) }

// rangeFlt returns a value in [lo, hi) quantized to cents.
func (r *rng) rangeFlt(lo, hi float64) float64 {
	f := float64(r.next()%1_000_000) / 1_000_000
	v := lo + f*(hi-lo)
	return math.Round(v*100) / 100
}

// picked is a string column drawn from a fixed set of options. A row is
// stored as its option's code in the options' dictionary, so the column
// is built without a string per row.
type picked struct {
	opts  *storage.BAT // the options encoded: opts.Codes()[i] is option i's code
	codes []uint32
}

func newPicked(opts []string, n int) *picked {
	return &picked{opts: storage.FromStrings(opts), codes: make([]uint32, 0, n)}
}

// pick draws the next row's option.
func (p *picked) pick(r *rng) {
	p.codes = append(p.codes, p.opts.Codes()[r.intn(int64(p.opts.Len()))])
}

func (p *picked) bat() *storage.BAT { return storage.FromCodes(p.opts.Dict(), p.codes) }

// Cardinalities per the TPC-H specification, scaled by SF. Region and
// nation are fixed-size.
const (
	baseSupplier = 10_000
	baseCustomer = 150_000
	basePart     = 200_000
	basePartSupp = 800_000
	baseOrders   = 1_500_000
	baseLineitem = 6_000_000 // approximate: 1-7 lines per order
)

// Rows returns the generated row count for a table at scale factor sf.
// Lineitem is approximate before generation (lines per order vary).
func Rows(table string, sf float64) int {
	scale := func(base int) int {
		n := int(float64(base) * sf)
		if n < 1 {
			n = 1
		}
		return n
	}
	switch table {
	case "region":
		return 5
	case "nation":
		return 25
	case "supplier":
		return scale(baseSupplier)
	case "customer":
		return scale(baseCustomer)
	case "part":
		return scale(basePart)
	case "partsupp":
		return scale(basePartSupp)
	case "orders":
		return scale(baseOrders)
	case "lineitem":
		return scale(baseLineitem)
	}
	return 0
}

// Date range used by TPC-H: orders span 1992-01-01 .. 1998-08-02.
// Dates are days since the Unix epoch.
const (
	dateLo = 8035  // 1992-01-01
	dateHi = 10440 // 1998-08-02
)

var (
	regionNames  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nationNames  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
	returnFlags  = []string{"R", "A", "N"}
	lineStatuses = []string{"O", "F"}
	shipModes    = []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "REG AIR", "FOB"}
	shipInstr    = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	orderStatus  = []string{"O", "F", "P"}
	priorities   = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	segments     = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	partTypes    = []string{"STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED NICKEL", "LARGE BRUSHED STEEL", "ECONOMY POLISHED BRASS", "PROMO BURNISHED COPPER"}
	containers   = []string{"SM CASE", "LG BOX", "MED BAG", "JUMBO JAR", "WRAP PKG"}
	brands       = []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45", "Brand#55"}
)

// Load generates all eight TPC-H tables at cfg.SF and defines them in cat
// under schema "sys". Generation is deterministic for a given Config.
func Load(cat *storage.Catalog, cfg Config) error {
	if cfg.SF <= 0 {
		return fmt.Errorf("tpch: scale factor must be positive, got %g", cfg.SF)
	}
	if err := loadRegion(cat); err != nil {
		return err
	}
	if err := loadNation(cat); err != nil {
		return err
	}
	if err := loadSupplier(cat, cfg); err != nil {
		return err
	}
	if err := loadCustomer(cat, cfg); err != nil {
		return err
	}
	if err := loadPart(cat, cfg); err != nil {
		return err
	}
	if err := loadPartSupp(cat, cfg); err != nil {
		return err
	}
	return loadOrdersAndLineitem(cat, cfg)
}

func loadRegion(cat *storage.Catalog) error {
	n := 5
	key := make([]int64, n)
	name := make([]string, n)
	comment := make([]string, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		name[i] = regionNames[i]
		comment[i] = "synthetic region " + regionNames[i]
	}
	return cat.Define("sys", "region",
		[]storage.Column{{Name: "r_regionkey", Kind: storage.Int}, {Name: "r_name", Kind: storage.Str}, {Name: "r_comment", Kind: storage.Str}},
		map[string]*storage.BAT{
			"r_regionkey": storage.FromInts(storage.Int, key),
			"r_name":      storage.FromStrings(name),
			"r_comment":   storage.FromStrings(comment),
		})
}

func loadNation(cat *storage.Catalog) error {
	n := 25
	key := make([]int64, n)
	name := make([]string, n)
	region := make([]int64, n)
	comment := make([]string, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i)
		name[i] = nationNames[i]
		region[i] = nationRegion[i]
		comment[i] = "synthetic nation " + nationNames[i]
	}
	return cat.Define("sys", "nation",
		[]storage.Column{{Name: "n_nationkey", Kind: storage.Int}, {Name: "n_name", Kind: storage.Str}, {Name: "n_regionkey", Kind: storage.Int}, {Name: "n_comment", Kind: storage.Str}},
		map[string]*storage.BAT{
			"n_nationkey": storage.FromInts(storage.Int, key),
			"n_name":      storage.FromStrings(name),
			"n_regionkey": storage.FromInts(storage.Int, region),
			"n_comment":   storage.FromStrings(comment),
		})
}

func loadSupplier(cat *storage.Catalog, cfg Config) error {
	n := Rows("supplier", cfg.SF)
	r := newRNG(cfg.Seed ^ 0x5151)
	key := make([]int64, n)
	name := make([]string, n)
	nation := make([]int64, n)
	acctbal := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		name[i] = fmt.Sprintf("Supplier#%09d", i+1)
		nation[i] = r.intn(25)
		acctbal[i] = r.rangeFlt(-999.99, 9999.99)
	}
	return cat.Define("sys", "supplier",
		[]storage.Column{
			{Name: "s_suppkey", Kind: storage.Int},
			{Name: "s_name", Kind: storage.Str},
			{Name: "s_nationkey", Kind: storage.Int},
			{Name: "s_acctbal", Kind: storage.Flt},
		},
		map[string]*storage.BAT{
			"s_suppkey":   storage.FromInts(storage.Int, key),
			"s_name":      storage.FromStrings(name),
			"s_nationkey": storage.FromInts(storage.Int, nation),
			"s_acctbal":   storage.FromFloats(acctbal),
		})
}

func loadCustomer(cat *storage.Catalog, cfg Config) error {
	n := Rows("customer", cfg.SF)
	r := newRNG(cfg.Seed ^ 0xC0C0)
	key := make([]int64, n)
	name := make([]string, n)
	nation := make([]int64, n)
	segment := newPicked(segments, n)
	acctbal := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		name[i] = fmt.Sprintf("Customer#%09d", i+1)
		nation[i] = r.intn(25)
		segment.pick(r)
		acctbal[i] = r.rangeFlt(-999.99, 9999.99)
	}
	return cat.Define("sys", "customer",
		[]storage.Column{
			{Name: "c_custkey", Kind: storage.Int},
			{Name: "c_name", Kind: storage.Str},
			{Name: "c_nationkey", Kind: storage.Int},
			{Name: "c_mktsegment", Kind: storage.Str},
			{Name: "c_acctbal", Kind: storage.Flt},
		},
		map[string]*storage.BAT{
			"c_custkey":    storage.FromInts(storage.Int, key),
			"c_name":       storage.FromStrings(name),
			"c_nationkey":  storage.FromInts(storage.Int, nation),
			"c_mktsegment": segment.bat(),
			"c_acctbal":    storage.FromFloats(acctbal),
		})
}

func loadPart(cat *storage.Catalog, cfg Config) error {
	n := Rows("part", cfg.SF)
	r := newRNG(cfg.Seed ^ 0xAAAA)
	key := make([]int64, n)
	name := make([]string, n)
	brand := newPicked(brands, n)
	typ := newPicked(partTypes, n)
	size := make([]int64, n)
	container := newPicked(containers, n)
	price := make([]float64, n)
	for i := 0; i < n; i++ {
		key[i] = int64(i + 1)
		name[i] = fmt.Sprintf("part %06d", i+1)
		brand.pick(r)
		typ.pick(r)
		size[i] = r.rangeInt(1, 50)
		container.pick(r)
		price[i] = r.rangeFlt(900, 2100)
	}
	return cat.Define("sys", "part",
		[]storage.Column{
			{Name: "p_partkey", Kind: storage.Int},
			{Name: "p_name", Kind: storage.Str},
			{Name: "p_brand", Kind: storage.Str},
			{Name: "p_type", Kind: storage.Str},
			{Name: "p_size", Kind: storage.Int},
			{Name: "p_container", Kind: storage.Str},
			{Name: "p_retailprice", Kind: storage.Flt},
		},
		map[string]*storage.BAT{
			"p_partkey":     storage.FromInts(storage.Int, key),
			"p_name":        storage.FromStrings(name),
			"p_brand":       brand.bat(),
			"p_type":        typ.bat(),
			"p_size":        storage.FromInts(storage.Int, size),
			"p_container":   container.bat(),
			"p_retailprice": storage.FromFloats(price),
		})
}

func loadPartSupp(cat *storage.Catalog, cfg Config) error {
	nPart := Rows("part", cfg.SF)
	nSupp := Rows("supplier", cfg.SF)
	r := newRNG(cfg.Seed ^ 0x9595)
	// 4 suppliers per part, per the spec.
	n := nPart * 4
	partkey := make([]int64, 0, n)
	suppkey := make([]int64, 0, n)
	availqty := make([]int64, 0, n)
	supplycost := make([]float64, 0, n)
	for p := 1; p <= nPart; p++ {
		for s := 0; s < 4; s++ {
			partkey = append(partkey, int64(p))
			suppkey = append(suppkey, r.rangeInt(1, int64(nSupp)))
			availqty = append(availqty, r.rangeInt(1, 9999))
			supplycost = append(supplycost, r.rangeFlt(1, 1000))
		}
	}
	return cat.Define("sys", "partsupp",
		[]storage.Column{
			{Name: "ps_partkey", Kind: storage.Int},
			{Name: "ps_suppkey", Kind: storage.Int},
			{Name: "ps_availqty", Kind: storage.Int},
			{Name: "ps_supplycost", Kind: storage.Flt},
		},
		map[string]*storage.BAT{
			"ps_partkey":    storage.FromInts(storage.Int, partkey),
			"ps_suppkey":    storage.FromInts(storage.Int, suppkey),
			"ps_availqty":   storage.FromInts(storage.Int, availqty),
			"ps_supplycost": storage.FromFloats(supplycost),
		})
}

func loadOrdersAndLineitem(cat *storage.Catalog, cfg Config) error {
	nOrders := Rows("orders", cfg.SF)
	nCust := Rows("customer", cfg.SF)
	nPart := Rows("part", cfg.SF)
	nSupp := Rows("supplier", cfg.SF)
	r := newRNG(cfg.Seed ^ 0x0DD5)

	oKey := make([]int64, nOrders)
	oCust := make([]int64, nOrders)
	oStatus := newPicked(orderStatus, nOrders)
	oTotal := make([]float64, nOrders)
	oDate := make([]int64, nOrders)
	oPriority := newPicked(priorities, nOrders)

	lOrder := make([]int64, 0, nOrders*4)
	lPart := make([]int64, 0, nOrders*4)
	lSupp := make([]int64, 0, nOrders*4)
	lLineNo := make([]int64, 0, nOrders*4)
	lQty := make([]float64, 0, nOrders*4)
	lPrice := make([]float64, 0, nOrders*4)
	lDiscount := make([]float64, 0, nOrders*4)
	lTax := make([]float64, 0, nOrders*4)
	lRetFlag := newPicked(returnFlags, nOrders*4)
	lStatus := newPicked(lineStatuses, nOrders*4)
	lShip := make([]int64, 0, nOrders*4)
	lCommit := make([]int64, 0, nOrders*4)
	lReceipt := make([]int64, 0, nOrders*4)
	lInstruct := newPicked(shipInstr, nOrders*4)
	lMode := newPicked(shipModes, nOrders*4)

	for i := 0; i < nOrders; i++ {
		oKey[i] = int64(i + 1)
		oCust[i] = r.rangeInt(1, int64(nCust))
		oStatus.pick(r)
		oDate[i] = r.rangeInt(dateLo, dateHi-121)
		oPriority.pick(r)

		lines := int(r.rangeInt(1, 7))
		var total float64
		for ln := 1; ln <= lines; ln++ {
			qty := float64(r.rangeInt(1, 50))
			price := r.rangeFlt(900, 104950)
			disc := float64(r.rangeInt(0, 10)) / 100
			tax := float64(r.rangeInt(0, 8)) / 100
			ship := oDate[i] + r.rangeInt(1, 121)
			lOrder = append(lOrder, oKey[i])
			lPart = append(lPart, r.rangeInt(1, int64(nPart)))
			lSupp = append(lSupp, r.rangeInt(1, int64(nSupp)))
			lLineNo = append(lLineNo, int64(ln))
			lQty = append(lQty, qty)
			lPrice = append(lPrice, price)
			lDiscount = append(lDiscount, disc)
			lTax = append(lTax, tax)
			lRetFlag.pick(r)
			lStatus.pick(r)
			lShip = append(lShip, ship)
			lCommit = append(lCommit, ship+r.rangeInt(-30, 30))
			lReceipt = append(lReceipt, ship+r.rangeInt(1, 30))
			lInstruct.pick(r)
			lMode.pick(r)
			total += price * qty
		}
		oTotal[i] = math.Round(total*100) / 100
	}

	if err := cat.Define("sys", "orders",
		[]storage.Column{
			{Name: "o_orderkey", Kind: storage.Int},
			{Name: "o_custkey", Kind: storage.Int},
			{Name: "o_orderstatus", Kind: storage.Str},
			{Name: "o_totalprice", Kind: storage.Flt},
			{Name: "o_orderdate", Kind: storage.Date},
			{Name: "o_orderpriority", Kind: storage.Str},
		},
		map[string]*storage.BAT{
			"o_orderkey":      storage.FromInts(storage.Int, oKey),
			"o_custkey":       storage.FromInts(storage.Int, oCust),
			"o_orderstatus":   oStatus.bat(),
			"o_totalprice":    storage.FromFloats(oTotal),
			"o_orderdate":     storage.FromInts(storage.Date, oDate),
			"o_orderpriority": oPriority.bat(),
		}); err != nil {
		return err
	}

	return cat.Define("sys", "lineitem",
		[]storage.Column{
			{Name: "l_orderkey", Kind: storage.Int},
			{Name: "l_partkey", Kind: storage.Int},
			{Name: "l_suppkey", Kind: storage.Int},
			{Name: "l_linenumber", Kind: storage.Int},
			{Name: "l_quantity", Kind: storage.Flt},
			{Name: "l_extendedprice", Kind: storage.Flt},
			{Name: "l_discount", Kind: storage.Flt},
			{Name: "l_tax", Kind: storage.Flt},
			{Name: "l_returnflag", Kind: storage.Str},
			{Name: "l_linestatus", Kind: storage.Str},
			{Name: "l_shipdate", Kind: storage.Date},
			{Name: "l_commitdate", Kind: storage.Date},
			{Name: "l_receiptdate", Kind: storage.Date},
			{Name: "l_shipinstruct", Kind: storage.Str},
			{Name: "l_shipmode", Kind: storage.Str},
		},
		map[string]*storage.BAT{
			"l_orderkey":      storage.FromInts(storage.Int, lOrder),
			"l_partkey":       storage.FromInts(storage.Int, lPart),
			"l_suppkey":       storage.FromInts(storage.Int, lSupp),
			"l_linenumber":    storage.FromInts(storage.Int, lLineNo),
			"l_quantity":      storage.FromFloats(lQty),
			"l_extendedprice": storage.FromFloats(lPrice),
			"l_discount":      storage.FromFloats(lDiscount),
			"l_tax":           storage.FromFloats(lTax),
			"l_returnflag":    lRetFlag.bat(),
			"l_linestatus":    lStatus.bat(),
			"l_shipdate":      storage.FromInts(storage.Date, lShip),
			"l_commitdate":    storage.FromInts(storage.Date, lCommit),
			"l_receiptdate":   storage.FromInts(storage.Date, lReceipt),
			"l_shipinstruct":  lInstruct.bat(),
			"l_shipmode":      lMode.bat(),
		})
}
