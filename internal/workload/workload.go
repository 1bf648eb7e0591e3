// Package workload generates deterministic synthetic datasets for the five
// vertical scenarios used by the TOREADOR Labs challenges: telco churn,
// retail baskets, smart-meter readings, web clickstream and payment fraud.
//
// The TOREADOR paper evaluates its approach on "simplified but real-life
// vertical scenarios"; the original industrial data is not available, so these
// generators act as the substitute documented in DESIGN.md. Each generator is
// seeded explicitly, making every test, example and benchmark reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/storage"
)

// Vertical identifies one of the Labs' application domains.
type Vertical string

// The supported verticals.
const (
	VerticalTelco   Vertical = "telco"
	VerticalRetail  Vertical = "retail"
	VerticalEnergy  Vertical = "energy"
	VerticalWeb     Vertical = "web"
	VerticalFinance Vertical = "finance"
)

// Verticals lists every supported vertical in a stable order.
func Verticals() []Vertical {
	return []Vertical{VerticalTelco, VerticalRetail, VerticalEnergy, VerticalWeb, VerticalFinance}
}

// baseTime anchors all generated timestamps; fixed so runs are reproducible.
var baseTime = time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)

// tablePartitions is the partition count of every generated table.
const tablePartitions = 4

// Generator produces the datasets of a single vertical scenario.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded with seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// ---------------------------------------------------------------------------
// Telco churn
// ---------------------------------------------------------------------------

// TelcoCustomerSchema describes a telco subscriber with a churn label.
func TelcoCustomerSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "customer_id", Type: storage.TypeInt},
		storage.Field{Name: "name", Type: storage.TypeString, Sensitivity: storage.Personal},
		storage.Field{Name: "region", Type: storage.TypeString},
		storage.Field{Name: "plan", Type: storage.TypeString},
		storage.Field{Name: "tenure_months", Type: storage.TypeInt},
		storage.Field{Name: "monthly_charge", Type: storage.TypeFloat},
		storage.Field{Name: "support_calls", Type: storage.TypeInt},
		storage.Field{Name: "dropped_calls", Type: storage.TypeInt},
		storage.Field{Name: "data_usage_gb", Type: storage.TypeFloat},
		storage.Field{Name: "churned", Type: storage.TypeBool},
	)
}

// TelcoCDRSchema describes a call-detail record.
func TelcoCDRSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "cdr_id", Type: storage.TypeInt},
		storage.Field{Name: "customer_id", Type: storage.TypeInt},
		storage.Field{Name: "callee", Type: storage.TypeString, Sensitivity: storage.Personal},
		storage.Field{Name: "started_at", Type: storage.TypeTime},
		storage.Field{Name: "duration_s", Type: storage.TypeInt},
		storage.Field{Name: "dropped", Type: storage.TypeBool},
		storage.Field{Name: "cell_id", Type: storage.TypeInt},
	)
}

var regions = []string{"north", "south", "east", "west", "centre"}
var plans = []string{"basic", "standard", "premium", "enterprise"}

// TelcoCustomers generates n subscribers. Roughly a quarter of the population
// churns; churn probability grows with support calls and dropped calls and
// shrinks with tenure, so classifiers have real signal to learn.
func (g *Generator) TelcoCustomers(n int) (*storage.Table, error) {
	tbl, err := storage.NewTable("telco_customers", TelcoCustomerSchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("customer_id"))
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		tenure := int64(g.rng.Intn(72) + 1)
		support := int64(poisson(g.rng, 1.5))
		dropped := int64(poisson(g.rng, 2.0))
		charge := 15 + g.rng.Float64()*85
		usage := math.Abs(g.rng.NormFloat64()*8 + 12)
		// Logistic churn model: more support/dropped calls raise the
		// churn odds, long tenure lowers them. Coefficients are strong
		// enough that a trained classifier clearly beats the majority
		// baseline, which the Labs scoring relies on.
		logit := -1.4 + 0.9*float64(support) + 0.5*float64(dropped) - 0.06*float64(tenure) + 0.02*(charge-50)
		p := 1 / (1 + math.Exp(-logit))
		churned := g.rng.Float64() < p
		row := storage.Row{
			int64(i + 1),
			fmt.Sprintf("subscriber-%05d", i+1),
			regions[g.rng.Intn(len(regions))],
			plans[g.rng.Intn(len(plans))],
			tenure,
			round2(charge),
			support,
			dropped,
			round2(usage),
			churned,
		}
		if err := tbl.Append(row); err != nil {
			return nil, fmt.Errorf("workload: telco customers: %w", err)
		}
	}
	return tbl, nil
}

// TelcoCDRs generates about perCustomer call records for each of n customers.
func (g *Generator) TelcoCDRs(customers, perCustomer int) (*storage.Table, error) {
	tbl, err := storage.NewTable("telco_cdrs", TelcoCDRSchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("customer_id"))
	if err != nil {
		return nil, err
	}
	id := int64(1)
	for c := 1; c <= customers; c++ {
		calls := poisson(g.rng, float64(perCustomer))
		for k := 0; k < calls; k++ {
			start := baseTime.Add(time.Duration(g.rng.Intn(90*24)) * time.Hour)
			row := storage.Row{
				id,
				int64(c),
				fmt.Sprintf("+39%09d", g.rng.Intn(1_000_000_000)),
				storage.TimeValue(start),
				int64(g.rng.Intn(1800) + 5),
				g.rng.Float64() < 0.05,
				int64(g.rng.Intn(500)),
			}
			if err := tbl.Append(row); err != nil {
				return nil, fmt.Errorf("workload: telco cdrs: %w", err)
			}
			id++
		}
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// Retail baskets
// ---------------------------------------------------------------------------

// RetailSchema describes a single basket line item.
func RetailSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "line_id", Type: storage.TypeInt},
		storage.Field{Name: "basket_id", Type: storage.TypeInt},
		storage.Field{Name: "customer_id", Type: storage.TypeInt},
		storage.Field{Name: "store", Type: storage.TypeString},
		storage.Field{Name: "product", Type: storage.TypeString},
		storage.Field{Name: "category", Type: storage.TypeString},
		storage.Field{Name: "quantity", Type: storage.TypeInt},
		storage.Field{Name: "unit_price", Type: storage.TypeFloat},
		storage.Field{Name: "sold_at", Type: storage.TypeTime},
	)
}

var retailCatalogue = []struct {
	product  string
	category string
	price    float64
}{
	{"milk", "dairy", 1.20}, {"cheese", "dairy", 4.50}, {"yogurt", "dairy", 0.90},
	{"bread", "bakery", 1.10}, {"croissant", "bakery", 1.60},
	{"apples", "produce", 2.30}, {"bananas", "produce", 1.70}, {"tomatoes", "produce", 2.90},
	{"pasta", "pantry", 1.40}, {"rice", "pantry", 2.10}, {"olive_oil", "pantry", 6.50},
	{"coffee", "beverages", 5.20}, {"tea", "beverages", 3.10}, {"wine", "beverages", 8.90},
	{"soap", "household", 2.40}, {"detergent", "household", 7.30},
	{"chocolate", "snacks", 2.80}, {"chips", "snacks", 1.90},
}

var stores = []string{"milan-01", "milan-02", "crema-01", "rome-01", "madrid-01"}

// RetailBaskets generates n baskets with affinity structure: buyers of pasta
// tend to also buy tomatoes and olive oil, coffee pairs with croissants, so
// frequent-itemset mining finds non-trivial rules.
func (g *Generator) RetailBaskets(n int) (*storage.Table, error) {
	tbl, err := storage.NewTable("retail_baskets", RetailSchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("basket_id"))
	if err != nil {
		return nil, err
	}
	affinities := map[string][]string{
		"pasta":  {"tomatoes", "olive_oil"},
		"coffee": {"croissant", "chocolate"},
		"wine":   {"cheese", "bread"},
	}
	lineID := int64(1)
	for b := 1; b <= n; b++ {
		customer := int64(g.rng.Intn(n/3+1) + 1)
		store := stores[g.rng.Intn(len(stores))]
		soldAt := baseTime.Add(time.Duration(g.rng.Intn(60*24)) * time.Hour)
		items := g.basketItems(affinities)
		for _, it := range items {
			row := storage.Row{
				lineID,
				int64(b),
				customer,
				store,
				it.product,
				it.category,
				int64(g.rng.Intn(3) + 1),
				it.price,
				storage.TimeValue(soldAt),
			}
			if err := tbl.Append(row); err != nil {
				return nil, fmt.Errorf("workload: retail baskets: %w", err)
			}
			lineID++
		}
	}
	return tbl, nil
}

func (g *Generator) basketItems(affinities map[string][]string) []struct {
	product  string
	category string
	price    float64
} {
	count := g.rng.Intn(5) + 2
	chosen := map[string]bool{}
	var out []struct {
		product  string
		category string
		price    float64
	}
	add := func(name string) {
		if chosen[name] {
			return
		}
		for _, item := range retailCatalogue {
			if item.product == name {
				chosen[name] = true
				out = append(out, item)
				return
			}
		}
	}
	for len(out) < count {
		item := retailCatalogue[g.rng.Intn(len(retailCatalogue))]
		add(item.product)
		// Pull in affine products with high probability to create rules.
		if friends, ok := affinities[item.product]; ok {
			for _, f := range friends {
				if g.rng.Float64() < 0.7 {
					add(f)
				}
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Smart-meter readings
// ---------------------------------------------------------------------------

// EnergySchema describes a smart-meter reading.
func EnergySchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "reading_id", Type: storage.TypeInt},
		storage.Field{Name: "meter_id", Type: storage.TypeInt},
		storage.Field{Name: "household", Type: storage.TypeString, Sensitivity: storage.Personal},
		storage.Field{Name: "read_at", Type: storage.TypeTime},
		storage.Field{Name: "kwh", Type: storage.TypeFloat},
		storage.Field{Name: "voltage", Type: storage.TypeFloat},
		storage.Field{Name: "anomaly", Type: storage.TypeBool},
	)
}

// SmartMeterReadings generates hourly readings for the given number of meters
// and days. Consumption follows a daily sinusoidal pattern plus noise; about
// 1% of readings are injected anomalies (spikes), labelled in the anomaly
// column so detection quality can be scored.
func (g *Generator) SmartMeterReadings(meters, days int) (*storage.Table, error) {
	tbl, err := storage.NewTable("meter_readings", EnergySchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("meter_id"))
	if err != nil {
		return nil, err
	}
	id := int64(1)
	for m := 1; m <= meters; m++ {
		baseLoad := 0.2 + g.rng.Float64()*0.6
		for h := 0; h < days*24; h++ {
			ts := baseTime.Add(time.Duration(h) * time.Hour)
			hourOfDay := float64(h % 24)
			seasonal := 0.5 + 0.5*math.Sin((hourOfDay-6)/24*2*math.Pi)
			kwh := baseLoad + seasonal + g.rng.NormFloat64()*0.05
			anomaly := g.rng.Float64() < 0.01
			if anomaly {
				kwh += 3 + g.rng.Float64()*2
			}
			if kwh < 0 {
				kwh = 0
			}
			row := storage.Row{
				id,
				int64(m),
				fmt.Sprintf("household-%04d", m),
				storage.TimeValue(ts),
				round3(kwh),
				round2(228 + g.rng.NormFloat64()*3),
				anomaly,
			}
			if err := tbl.Append(row); err != nil {
				return nil, fmt.Errorf("workload: meter readings: %w", err)
			}
			id++
		}
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// Web clickstream
// ---------------------------------------------------------------------------

// ClickstreamSchema describes a web log event.
func ClickstreamSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "event_id", Type: storage.TypeInt},
		storage.Field{Name: "user_id", Type: storage.TypeInt},
		storage.Field{Name: "ip", Type: storage.TypeString, Sensitivity: storage.Personal},
		storage.Field{Name: "url", Type: storage.TypeString},
		storage.Field{Name: "referrer", Type: storage.TypeString, Nullable: true},
		storage.Field{Name: "occurred_at", Type: storage.TypeTime},
		storage.Field{Name: "duration_ms", Type: storage.TypeInt},
		storage.Field{Name: "converted", Type: storage.TypeBool},
	)
}

var pages = []string{"/", "/catalog", "/product/1", "/product/2", "/product/3", "/cart", "/checkout", "/help", "/account"}

// Clickstream generates events for the given number of users, with an average
// of eventsPerUser page views grouped into sessions. Visits that reach
// /checkout mark the terminal event as converted.
func (g *Generator) Clickstream(users, eventsPerUser int) (*storage.Table, error) {
	tbl, err := storage.NewTable("clickstream", ClickstreamSchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("user_id"))
	if err != nil {
		return nil, err
	}
	id := int64(1)
	for u := 1; u <= users; u++ {
		events := poisson(g.rng, float64(eventsPerUser))
		if events == 0 {
			events = 1
		}
		cursor := baseTime.Add(time.Duration(g.rng.Intn(30*24)) * time.Hour)
		ip := fmt.Sprintf("10.%d.%d.%d", g.rng.Intn(256), g.rng.Intn(256), g.rng.Intn(256))
		var prev string
		for e := 0; e < events; e++ {
			// Session gap of up to 6 hours with 15% probability.
			if g.rng.Float64() < 0.15 {
				cursor = cursor.Add(time.Duration(g.rng.Intn(6*3600)) * time.Second)
				prev = ""
			} else {
				cursor = cursor.Add(time.Duration(g.rng.Intn(240)+5) * time.Second)
			}
			url := pages[g.rng.Intn(len(pages))]
			var ref storage.Value
			if prev != "" {
				ref = prev
			}
			converted := url == "/checkout" && g.rng.Float64() < 0.6
			row := storage.Row{
				id,
				int64(u),
				ip,
				url,
				ref,
				storage.TimeValue(cursor),
				int64(g.rng.Intn(30000) + 200),
				converted,
			}
			if err := tbl.Append(row); err != nil {
				return nil, fmt.Errorf("workload: clickstream: %w", err)
			}
			prev = url
			id++
		}
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// Payments / fraud
// ---------------------------------------------------------------------------

// PaymentsSchema describes a card transaction with a fraud label.
func PaymentsSchema() *storage.Schema {
	return storage.MustSchema(
		storage.Field{Name: "tx_id", Type: storage.TypeInt},
		storage.Field{Name: "account_id", Type: storage.TypeInt},
		storage.Field{Name: "card_number", Type: storage.TypeString, Sensitivity: storage.Sensitive},
		storage.Field{Name: "merchant", Type: storage.TypeString},
		storage.Field{Name: "country", Type: storage.TypeString},
		storage.Field{Name: "amount", Type: storage.TypeFloat},
		storage.Field{Name: "occurred_at", Type: storage.TypeTime},
		storage.Field{Name: "online", Type: storage.TypeBool},
		storage.Field{Name: "fraud", Type: storage.TypeBool},
	)
}

var merchants = []string{"grocer", "electronics", "fuel", "travel", "fashion", "gaming", "pharmacy", "restaurant"}
var countries = []string{"IT", "ES", "FR", "DE", "GB", "US", "CN", "RU"}

// Payments generates n card transactions, about fraudRate of which are
// fraudulent. Fraudulent transactions skew towards high amounts, online
// channels and unusual countries, so both supervised and unsupervised
// detectors have signal.
func (g *Generator) Payments(n int, fraudRate float64) (*storage.Table, error) {
	if fraudRate < 0 || fraudRate > 1 {
		return nil, fmt.Errorf("workload: fraud rate %v out of [0,1]", fraudRate)
	}
	tbl, err := storage.NewTable("payments", PaymentsSchema(),
		storage.WithPartitions(tablePartitions), storage.WithPartitionKey("account_id"))
	if err != nil {
		return nil, err
	}
	for i := 1; i <= n; i++ {
		fraud := g.rng.Float64() < fraudRate
		amount := math.Abs(g.rng.NormFloat64()*40 + 35)
		country := countries[g.rng.Intn(4)] // mostly EU
		online := g.rng.Float64() < 0.35
		if fraud {
			amount = math.Abs(g.rng.NormFloat64()*300 + 400)
			country = countries[4+g.rng.Intn(4)] // mostly non-EU
			online = g.rng.Float64() < 0.85
		}
		row := storage.Row{
			int64(i),
			int64(g.rng.Intn(n/5+1) + 1),
			fmt.Sprintf("4%015d", g.rng.Int63n(1_000_000_000_000_000)),
			merchants[g.rng.Intn(len(merchants))],
			country,
			round2(amount),
			storage.TimeValue(baseTime.Add(time.Duration(g.rng.Intn(30*24*3600)) * time.Second)),
			online,
			fraud,
		}
		if err := tbl.Append(row); err != nil {
			return nil, fmt.Errorf("workload: payments: %w", err)
		}
	}
	return tbl, nil
}

// ---------------------------------------------------------------------------
// Scenario bundles
// ---------------------------------------------------------------------------

// Scenario bundles the tables of one vertical together with its descriptive
// metadata, ready to be registered with a storage catalog.
type Scenario struct {
	Vertical    Vertical
	Description string
	Tables      []*storage.Table
	// LabelTable and LabelField identify the ground-truth column used by the
	// Labs scoring machinery (empty when the scenario is unsupervised).
	LabelTable string
	LabelField string
}

// Sizing controls how much data Generate produces; the zero value selects
// laptop-scale defaults suitable for tests.
type Sizing struct {
	Customers int // telco subscribers / retail baskets / payment count base
	Meters    int
	Days      int
	Users     int
}

// DefaultSizing returns the sizing used by Labs challenges and examples.
func DefaultSizing() Sizing {
	return Sizing{Customers: 2000, Meters: 20, Days: 14, Users: 300}
}

// smallSizing lower-bounds a sizing so degenerate values still generate data.
func (s Sizing) normalized() Sizing {
	d := DefaultSizing()
	if s.Customers <= 0 {
		s.Customers = d.Customers
	}
	if s.Meters <= 0 {
		s.Meters = d.Meters
	}
	if s.Days <= 0 {
		s.Days = d.Days
	}
	if s.Users <= 0 {
		s.Users = d.Users
	}
	return s
}

// Generate produces the full scenario for a vertical at the given sizing.
func (g *Generator) Generate(v Vertical, sz Sizing) (*Scenario, error) {
	sz = sz.normalized()
	switch v {
	case VerticalTelco:
		customers, err := g.TelcoCustomers(sz.Customers)
		if err != nil {
			return nil, err
		}
		cdrs, err := g.TelcoCDRs(sz.Customers/4, 8)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Vertical:    VerticalTelco,
			Description: "telecom churn prediction over subscriber profiles and call detail records",
			Tables:      []*storage.Table{customers, cdrs},
			LabelTable:  "telco_customers",
			LabelField:  "churned",
		}, nil
	case VerticalRetail:
		baskets, err := g.RetailBaskets(sz.Customers)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Vertical:    VerticalRetail,
			Description: "retail market-basket analysis and revenue reporting",
			Tables:      []*storage.Table{baskets},
		}, nil
	case VerticalEnergy:
		readings, err := g.SmartMeterReadings(sz.Meters, sz.Days)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Vertical:    VerticalEnergy,
			Description: "smart-meter consumption forecasting and anomaly detection",
			Tables:      []*storage.Table{readings},
			LabelTable:  "meter_readings",
			LabelField:  "anomaly",
		}, nil
	case VerticalWeb:
		clicks, err := g.Clickstream(sz.Users, 20)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Vertical:    VerticalWeb,
			Description: "clickstream sessionization and conversion funnel analysis",
			Tables:      []*storage.Table{clicks},
			LabelTable:  "clickstream",
			LabelField:  "converted",
		}, nil
	case VerticalFinance:
		payments, err := g.Payments(sz.Customers*2, 0.03)
		if err != nil {
			return nil, err
		}
		return &Scenario{
			Vertical:    VerticalFinance,
			Description: "payment fraud detection over card transactions",
			Tables:      []*storage.Table{payments},
			LabelTable:  "payments",
			LabelField:  "fraud",
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown vertical %q", v)
	}
}

// Register adds every table of the scenario to the catalog.
func (s *Scenario) Register(c *storage.Catalog) error {
	for _, t := range s.Tables {
		if err := c.Register(t); err != nil {
			return fmt.Errorf("workload: register scenario %s: %w", s.Vertical, err)
		}
	}
	return nil
}

// Table returns the scenario table with the given name.
func (s *Scenario) Table(name string) (*storage.Table, error) {
	for _, t := range s.Tables {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("workload: scenario %s has no table %q", s.Vertical, name)
}

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

// poisson draws from a Poisson distribution with the given mean using Knuth's
// algorithm; adequate for the small means used here.
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		k++
		p *= rng.Float64()
		if p <= l {
			return k - 1
		}
		if k > 10000 {
			return k
		}
	}
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
