package humo

import (
	"reflect"
	"testing"

	"humo/internal/gp"
)

// fingerprintKnobs returns a SessionConfig for method with every hashed
// knob moved off its default: the sampling fields, the Base and Hybrid
// windows, the risk schedule and budget, and the correct strata, schedule,
// budget and classifier labels. The Workers fields are set too; they trade
// wall-clock time only and must not enter the hash.
func fingerprintKnobs(method Method) SessionConfig {
	samp := SamplingConfig{
		PairsPerSubset: 7,
		MinSampleFrac:  0.02,
		MaxSampleFrac:  0.08,
		Epsilon:        0.03,
		GPGrid:         []gp.Config{{LengthScale: 0.1, SignalVar: 0.2, NoiseFloor: 1e-5, EmpiricalMean: true}},
		GPNoiseFloor:   2e-6,
	}
	cfg := SessionConfig{
		Method:      method,
		Base:        BaseConfig{Window: 4, StartSubset: 3, BootstrapSamples: 12},
		Sampling:    samp,
		Hybrid:      HybridConfig{Sampling: samp, Window: 6},
		BudgetPairs: 250,
		Seed:        9,
	}
	cfg.Risk.Sampling = samp
	cfg.Risk.Schedule = RiskScheduleConfig{BatchSize: 16, PriorStrength: 3, TailProb: 0.1, Workers: 5}
	cfg.Risk.BudgetPairs = 400
	cfg.Correct.Labels = []CorrectLabel{{ID: 1, Match: true, Score: 0.9}, {ID: 4, Match: false, Score: 0.2}}
	cfg.Correct.StratumSize = 50
	cfg.Correct.SeedPerStratum = 3
	cfg.Correct.Schedule = RiskScheduleConfig{BatchSize: 8, PriorStrength: 2, TailProb: 0.05, Workers: 3}
	cfg.Correct.BudgetPairs = 300
	return cfg
}

// TestConfigFingerprintPinned pins the config_hash every checkpoint embeds,
// for all seven methods with default and with non-default knobs. A hash
// that moves makes every existing checkpoint (and humod's state directory)
// unrestorable, so a change to these literals is a format break.
func TestConfigFingerprintPinned(t *testing.T) {
	def := func(m Method) SessionConfig {
		return SessionConfig{Method: m, Base: BaseConfig{StartSubset: -1}}
	}
	cases := []struct {
		name string
		cfg  SessionConfig
		want string
	}{
		{"base/default", def(MethodBase), "dbd463cba03f7f8f"},
		{"allsampling/default", def(MethodAllSampling), "dbd463cba03f7f8f"},
		{"sampling/default", def(MethodPartialSampling), "dbd463cba03f7f8f"},
		{"hybrid/default", def(MethodHybrid), "dbd463cba03f7f8f"},
		{"budgeted/default", def(MethodBudgeted), "dbd463cba03f7f8f"},
		{"risk/default", def(MethodRisk), "278149f5d05bb525"},
		{"correct/default", def(MethodCorrect), "909335c4e9bb123e"},
		{"base/knobs", fingerprintKnobs(MethodBase), "53e1ba8967f2aa0b"},
		{"allsampling/knobs", fingerprintKnobs(MethodAllSampling), "53e1ba8967f2aa0b"},
		{"sampling/knobs", fingerprintKnobs(MethodPartialSampling), "53e1ba8967f2aa0b"},
		{"hybrid/knobs", fingerprintKnobs(MethodHybrid), "53e1ba8967f2aa0b"},
		{"budgeted/knobs", fingerprintKnobs(MethodBudgeted), "53e1ba8967f2aa0b"},
		{"risk/knobs", fingerprintKnobs(MethodRisk), "a3c21c494d3cabb8"},
		{"correct/knobs", fingerprintKnobs(MethodCorrect), "3dcc96284748662f"},
	}
	for _, c := range cases {
		if got := configFingerprint(c.cfg); got != c.want {
			t.Errorf("%s: config hash %s, want %s", c.name, got, c.want)
		}
	}
	// The Workers knobs trade wall-clock time only.
	for _, m := range []Method{MethodRisk, MethodCorrect} {
		cfg := fingerprintKnobs(m)
		want := configFingerprint(cfg)
		cfg.Risk.Schedule.Workers = 1
		cfg.Correct.Schedule.Workers = 1
		if got := configFingerprint(cfg); got != want {
			t.Errorf("%s: schedule Workers moved the config hash %s -> %s", m, want, got)
		}
	}
}

// TestConfigFingerprintCoversKnobs fails when a hashed config struct gains
// a field that configFingerprint does not render (samplingV1 and the
// Hybrid/Risk wrappers mirror their structs field by field): moving any
// leaf knob off its zero value must move the hash. Workers, Rand and
// Progress are exempt by design.
func TestConfigFingerprintCoversKnobs(t *testing.T) {
	for _, c := range []struct {
		method Method
		field  string
	}{
		{MethodPartialSampling, "Sampling"},
		{MethodHybrid, "Hybrid"},
		{MethodRisk, "Risk"},
	} {
		cfg := SessionConfig{Method: c.method}
		base := configFingerprint(cfg)
		var walk func(v reflect.Value, path string)
		walk = func(v reflect.Value, path string) {
			for i := 0; i < v.NumField(); i++ {
				f, name := v.Field(i), v.Type().Field(i).Name
				switch name {
				case "Workers", "Rand", "Progress":
					continue
				}
				p := path + "." + name
				switch f.Kind() {
				case reflect.Struct:
					walk(f, p)
					continue
				case reflect.Int:
					f.SetInt(7)
				case reflect.Float64:
					f.SetFloat(0.125)
				case reflect.Bool:
					f.SetBool(true)
				case reflect.Slice:
					f.Set(reflect.MakeSlice(f.Type(), 1, 1))
				default:
					t.Fatalf("%s: unhandled kind %s; extend this guard", p, f.Kind())
				}
				if configFingerprint(cfg) == base {
					t.Errorf("%s does not enter the config hash", p)
				}
				f.Set(reflect.Zero(f.Type()))
			}
		}
		walk(reflect.ValueOf(&cfg).Elem().FieldByName(c.field), c.field)
	}
}
