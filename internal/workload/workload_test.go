package workload

import (
	"testing"

	"repro/internal/storage"
)

func TestTelcoCustomersDeterministic(t *testing.T) {
	a, err := NewGenerator(42).TelcoCustomers(200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenerator(42).TelcoCustomers(200)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 200 || b.NumRows() != 200 {
		t.Fatalf("rows = %d / %d, want 200", a.NumRows(), b.NumRows())
	}
	ra, rb := a.Rows(), b.Rows()
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				t.Fatalf("row %d differs between identically seeded generators: %v vs %v", i, ra[i], rb[i])
			}
		}
	}
}

func TestTelcoCustomersChurnSignal(t *testing.T) {
	tbl, err := NewGenerator(7).TelcoCustomers(3000)
	if err != nil {
		t.Fatal(err)
	}
	schema := tbl.Schema()
	churnIdx := schema.IndexOf("churned")
	supportIdx := schema.IndexOf("support_calls")
	churned, total := 0, 0
	var supportChurned, supportStayed float64
	var nChurned, nStayed float64
	tbl.Scan(func(r storage.Row) bool {
		total++
		s, _ := storage.AsFloat(r[supportIdx])
		if r[churnIdx].(bool) {
			churned++
			supportChurned += s
			nChurned++
		} else {
			supportStayed += s
			nStayed++
		}
		return true
	})
	rate := float64(churned) / float64(total)
	if rate < 0.10 || rate > 0.60 {
		t.Errorf("churn rate = %.2f, want a realistic 0.10-0.60", rate)
	}
	if nChurned == 0 || nStayed == 0 {
		t.Fatal("both classes must be present")
	}
	if supportChurned/nChurned <= supportStayed/nStayed {
		t.Error("churned customers should average more support calls than retained ones")
	}
}

func TestTelcoCDRs(t *testing.T) {
	tbl, err := NewGenerator(1).TelcoCDRs(50, 6)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 100 {
		t.Errorf("expected roughly 300 CDRs, got %d", tbl.NumRows())
	}
	custIdx := tbl.Schema().IndexOf("customer_id")
	tbl.Scan(func(r storage.Row) bool {
		id := r[custIdx].(int64)
		if id < 1 || id > 50 {
			t.Errorf("customer_id %d outside generated population", id)
			return false
		}
		return true
	})
}

func TestRetailBasketsAffinity(t *testing.T) {
	tbl, err := NewGenerator(3).RetailBaskets(800)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 800*2 {
		t.Fatalf("rows = %d, expected at least 2 items per basket", tbl.NumRows())
	}
	// Pasta→tomatoes affinity: among baskets containing pasta, tomatoes must
	// appear more often than in the overall population.
	prodIdx := tbl.Schema().IndexOf("product")
	basketIdx := tbl.Schema().IndexOf("basket_id")
	contents := map[int64]map[string]bool{}
	tbl.Scan(func(r storage.Row) bool {
		b := r[basketIdx].(int64)
		if contents[b] == nil {
			contents[b] = map[string]bool{}
		}
		contents[b][r[prodIdx].(string)] = true
		return true
	})
	withPasta, pastaAndTomato, withTomato := 0, 0, 0
	for _, items := range contents {
		if items["pasta"] {
			withPasta++
			if items["tomatoes"] {
				pastaAndTomato++
			}
		}
		if items["tomatoes"] {
			withTomato++
		}
	}
	if withPasta == 0 {
		t.Fatal("no basket contains pasta")
	}
	condProb := float64(pastaAndTomato) / float64(withPasta)
	baseProb := float64(withTomato) / float64(len(contents))
	if condProb <= baseProb {
		t.Errorf("P(tomatoes|pasta)=%.2f should exceed P(tomatoes)=%.2f", condProb, baseProb)
	}
}

func TestSmartMeterReadings(t *testing.T) {
	tbl, err := NewGenerator(9).SmartMeterReadings(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 5 * 3 * 24
	if tbl.NumRows() != want {
		t.Fatalf("rows = %d, want %d", tbl.NumRows(), want)
	}
	kwhIdx := tbl.Schema().IndexOf("kwh")
	anomalyIdx := tbl.Schema().IndexOf("anomaly")
	var anomalies int
	var anomalyMean, normalMean float64
	var nAnom, nNorm float64
	tbl.Scan(func(r storage.Row) bool {
		kwh := r[kwhIdx].(float64)
		if kwh < 0 {
			t.Errorf("negative consumption %v", kwh)
		}
		if r[anomalyIdx].(bool) {
			anomalies++
			anomalyMean += kwh
			nAnom++
		} else {
			normalMean += kwh
			nNorm++
		}
		return true
	})
	if nAnom > 0 && anomalyMean/nAnom <= normalMean/nNorm {
		t.Error("anomalous readings must be larger on average")
	}
	if anomalies > want/10 {
		t.Errorf("too many anomalies: %d of %d", anomalies, want)
	}
}

func TestClickstream(t *testing.T) {
	tbl, err := NewGenerator(11).Clickstream(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < 40 {
		t.Fatalf("rows = %d, want at least one event per user", tbl.NumRows())
	}
	urlIdx := tbl.Schema().IndexOf("url")
	convIdx := tbl.Schema().IndexOf("converted")
	tbl.Scan(func(r storage.Row) bool {
		if r[convIdx].(bool) && r[urlIdx].(string) != "/checkout" {
			t.Errorf("conversion on non-checkout page %v", r[urlIdx])
			return false
		}
		return true
	})
}

func TestPayments(t *testing.T) {
	tbl, err := NewGenerator(13).Payments(4000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4000 {
		t.Fatalf("rows = %d, want 4000", tbl.NumRows())
	}
	fraudIdx := tbl.Schema().IndexOf("fraud")
	amountIdx := tbl.Schema().IndexOf("amount")
	var fraudCount int
	var fraudMean, legitMean float64
	var nf, nl float64
	tbl.Scan(func(r storage.Row) bool {
		amt := r[amountIdx].(float64)
		if r[fraudIdx].(bool) {
			fraudCount++
			fraudMean += amt
			nf++
		} else {
			legitMean += amt
			nl++
		}
		return true
	})
	rate := float64(fraudCount) / 4000
	if rate < 0.02 || rate > 0.10 {
		t.Errorf("fraud rate = %.3f, want around 0.05", rate)
	}
	if fraudMean/nf <= legitMean/nl {
		t.Error("fraudulent transactions must be larger on average")
	}
	if _, err := NewGenerator(1).Payments(10, 1.5); err == nil {
		t.Error("invalid fraud rate must be rejected")
	}
}

func TestGenerateAllVerticals(t *testing.T) {
	sz := Sizing{Customers: 200, Meters: 3, Days: 2, Users: 30}
	for _, v := range Verticals() {
		sc, err := NewGenerator(5).Generate(v, sz)
		if err != nil {
			t.Fatalf("Generate(%s): %v", v, err)
		}
		if sc.Vertical != v || len(sc.Tables) == 0 {
			t.Errorf("scenario %s malformed: %+v", v, sc)
		}
		for _, tbl := range sc.Tables {
			if tbl.NumRows() == 0 {
				t.Errorf("scenario %s table %s is empty", v, tbl.Name())
			}
		}
		if sc.LabelTable != "" {
			lt, err := sc.Table(sc.LabelTable)
			if err != nil {
				t.Errorf("scenario %s label table: %v", v, err)
			} else if !lt.Schema().Has(sc.LabelField) {
				t.Errorf("scenario %s label field %q missing", v, sc.LabelField)
			}
		}
	}
	if _, err := NewGenerator(5).Generate(Vertical("bogus"), sz); err == nil {
		t.Error("unknown vertical must be rejected")
	}
}

func TestScenarioRegisterAndLookup(t *testing.T) {
	sc, err := NewGenerator(5).Generate(VerticalTelco, Sizing{Customers: 100, Meters: 1, Days: 1, Users: 1})
	if err != nil {
		t.Fatal(err)
	}
	cat := storage.NewCatalog()
	if err := sc.Register(cat); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := cat.Lookup("telco_customers"); err != nil {
		t.Errorf("catalog lookup after register: %v", err)
	}
	if err := sc.Register(cat); err == nil {
		t.Error("double registration must fail")
	}
	if _, err := sc.Table("nonexistent"); err == nil {
		t.Error("unknown table lookup must fail")
	}
}

func TestSizingNormalization(t *testing.T) {
	n := (Sizing{}).normalized()
	d := DefaultSizing()
	if n != d {
		t.Errorf("zero sizing normalizes to %+v, want defaults %+v", n, d)
	}
	custom := Sizing{Customers: 10, Meters: 1, Days: 1, Users: 1}
	if custom.normalized() != custom {
		t.Error("explicit sizing must pass through unchanged")
	}
}

func TestGeneratorPartitionOption(t *testing.T) {
	tbl, err := NewGenerator(1).TelcoCustomers(10)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Partitions() != 4 {
		t.Errorf("partitions = %d, want the default 4", tbl.Partitions())
	}
}
