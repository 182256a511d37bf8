package ivn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// (workload generation, channel realization, beamforming, baselines,
// decoding, statistics) and — once per run — prints the resulting rows so
// `go test -bench . -benchmem` doubles as the reproduction driver.
//
// Mapping (see DESIGN.md for the full experiment index):
//
//	BenchmarkFig2DiodeIV             → paper Fig. 2
//	BenchmarkFig3TissueLoss          → paper Fig. 3
//	BenchmarkFig4ConductionAngle     → paper Fig. 4
//	BenchmarkFig6FreqSelectionCDF    → paper Fig. 6
//	BenchmarkFreqOpt                 → §3.6 one-time optimization
//	BenchmarkFig9GainVsAntennas      → paper Fig. 9
//	BenchmarkFig10GainVsDepth        → paper Fig. 10(a)
//	BenchmarkFig10GainVsOrientation  → paper Fig. 10(b)
//	BenchmarkFig11GainAcrossMedia    → paper Fig. 11
//	BenchmarkFig12CIBvsBaselineCDF   → paper Fig. 12
//	BenchmarkFig13RangeStandardAir   → paper Fig. 13(a)
//	BenchmarkFig13RangeMiniAir       → paper Fig. 13(b)
//	BenchmarkFig13DepthStandardWater → paper Fig. 13(c)
//	BenchmarkFig13DepthMiniWater     → paper Fig. 13(d)
//	BenchmarkFig15Waveforms          → paper Fig. 15(a)/(b)
//	BenchmarkInVivoTable             → §6.2 in-vivo results
//	BenchmarkAblation*               → design-choice ablations
//	BenchmarkPopulation              → §3.7 multi-sensor regime, N up to 1000
//	BenchmarkAdaptiveQ               → §3.7 adaptive-Q ablation at N=1000
//	BenchmarkFaultMatrix             → §3.7 inventory under injected faults
import (
	"bytes"
	"sync"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/ivnsim"
)

var benchPrintOnce sync.Map

// runExperimentBench executes experiment id once per b.N iteration with a
// CI-scale configuration, and prints the resulting table a single time.
func runExperimentBench(b *testing.B, id string) {
	b.Helper()
	e, err := ivnsim.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ivnsim.Config{Seed: 1, Quick: true}
	var res *engine.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = e.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, printed := benchPrintOnce.LoadOrStore(id, true); !printed && res != nil {
		var buf bytes.Buffer
		if err := engine.RenderText(res, &buf); err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", buf.String())
	}
}

func BenchmarkFig2DiodeIV(b *testing.B)             { runExperimentBench(b, "fig2") }
func BenchmarkFig3TissueLoss(b *testing.B)          { runExperimentBench(b, "fig3") }
func BenchmarkFig4ConductionAngle(b *testing.B)     { runExperimentBench(b, "fig4") }
func BenchmarkFig6FreqSelectionCDF(b *testing.B)    { runExperimentBench(b, "fig6") }
func BenchmarkFreqOpt(b *testing.B)                 { runExperimentBench(b, "freqopt") }
func BenchmarkFig9GainVsAntennas(b *testing.B)      { runExperimentBench(b, "fig9") }
func BenchmarkFig10GainVsDepth(b *testing.B)        { runExperimentBench(b, "fig10a") }
func BenchmarkFig10GainVsOrientation(b *testing.B)  { runExperimentBench(b, "fig10b") }
func BenchmarkFig11GainAcrossMedia(b *testing.B)    { runExperimentBench(b, "fig11") }
func BenchmarkFig12CIBvsBaselineCDF(b *testing.B)   { runExperimentBench(b, "fig12") }
func BenchmarkFig13RangeStandardAir(b *testing.B)   { runExperimentBench(b, "fig13a") }
func BenchmarkFig13RangeMiniAir(b *testing.B)       { runExperimentBench(b, "fig13b") }
func BenchmarkFig13DepthStandardWater(b *testing.B) { runExperimentBench(b, "fig13c") }
func BenchmarkFig13DepthMiniWater(b *testing.B)     { runExperimentBench(b, "fig13d") }
func BenchmarkInVivoTable(b *testing.B)             { runExperimentBench(b, "invivo") }

func BenchmarkFig15Waveforms(b *testing.B) {
	for _, id := range []string{"fig15a", "fig15b"} {
		id := id
		b.Run(id, func(b *testing.B) { runExperimentBench(b, id) })
	}
}

func BenchmarkAblationCoherentVsBlind(b *testing.B) { runExperimentBench(b, "ablation-coherent") }
func BenchmarkAblationEqualPower(b *testing.B)      { runExperimentBench(b, "ablation-equalpower") }
func BenchmarkAblationTwoStage(b *testing.B)        { runExperimentBench(b, "ablation-twostage") }
func BenchmarkAblationFlatness(b *testing.B)        { runExperimentBench(b, "ablation-flatness") }
func BenchmarkAblationAveraging(b *testing.B)       { runExperimentBench(b, "ablation-averaging") }
func BenchmarkAblationOutOfBand(b *testing.B)       { runExperimentBench(b, "ablation-outofband") }
func BenchmarkAblationSafety(b *testing.B)          { runExperimentBench(b, "ablation-safety") }
func BenchmarkAblationFreqError(b *testing.B)       { runExperimentBench(b, "ablation-freqerror") }
func BenchmarkAblationHopping(b *testing.B)         { runExperimentBench(b, "ablation-hopping") }
func BenchmarkAblationMultipath(b *testing.B)       { runExperimentBench(b, "ablation-multipath") }
func BenchmarkAblationPhaseNoise(b *testing.B)      { runExperimentBench(b, "ablation-phasenoise") }
func BenchmarkAblationMiller(b *testing.B)          { runExperimentBench(b, "ablation-miller") }

func BenchmarkPopulation(b *testing.B)  { runExperimentBench(b, "population") }
func BenchmarkAdaptiveQ(b *testing.B)   { runExperimentBench(b, "adaptiveq") }
func BenchmarkFaultMatrix(b *testing.B) { runExperimentBench(b, "faultmatrix") }

// BenchmarkInventoryExchange measures the cost of one full library-level
// power-up + inventory exchange — the System hot path.
func BenchmarkInventoryExchange(b *testing.B) {
	sys, err := New(Config{Antennas: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sc := benchScenario()
	model := benchTag()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Inventory(sc, model); err != nil {
			b.Fatal(err)
		}
	}
}
