package ivnsim

import "testing"

// Golden regression tests: the analytic (trial-free) experiments must
// reproduce these exact rows. They pin the physics constants — diode
// threshold, tissue dielectrics, Fresnel boundary math — so an accidental
// model change cannot slip through as "just different random numbers".

func TestGoldenFig2(t *testing.T) {
	rows, err := mustRun(t, "fig2", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][2]string{
		"-0.200": {"0.000", "0.000"},
		"0.100":  {"2.000", "0.000"},
		"0.300":  {"6.000", "0.000"},
		"0.400":  {"8.000", "2.000"},
		"0.600":  {"12.000", "6.000"},
	}
	seen := 0
	for _, row := range rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w[0] || row[2] != w[1] {
				t.Errorf("V=%s: got (%s, %s), want (%s, %s)", row[0], row[1], row[2], w[0], w[1])
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("matched %d/%d golden rows", seen, len(want))
	}
}

func TestGoldenFig3(t *testing.T) {
	rows, err := mustRun(t, "fig3", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned rows from the derived dielectric model: the air→muscle
	// boundary costs 3.91 dB and muscle attenuates 2.49 dB/cm at 915 MHz.
	want := map[string][2]string{
		"10": {"0.00", "3.91"},
		"20": {"6.02", "34.80"},
		"30": {"9.54", "63.20"},
	}
	seen := 0
	for _, row := range rows {
		if w, ok := want[row[0]]; ok {
			if row[1] != w[0] || row[2] != w[1] {
				t.Errorf("d=%s cm: got (%s, %s), want (%s, %s)", row[0], row[1], row[2], w[0], w[1])
			}
			seen++
		}
	}
	if seen != len(want) {
		t.Fatalf("matched %d/%d golden rows", seen, len(want))
	}
}

func TestGoldenFig4(t *testing.T) {
	rows, err := mustRun(t, "fig4", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The three regimes' conduction angles, to three decimals.
	wantAngles := []string{"0.474", "0.406", "0.000"}
	for i, w := range wantAngles {
		if rows[i][2] != w {
			t.Errorf("regime %d conduction angle %s, want %s", i, rows[i][2], w)
		}
	}
	// Deep tissue harvests exactly nothing.
	if rows[2][3] != "0.000" {
		t.Errorf("deep-tissue V_DC %s, want 0.000", rows[2][3])
	}
}

func TestGoldenDeterminismAcrossRuns(t *testing.T) {
	// Randomized experiments must be byte-identical for equal seeds.
	for _, id := range []string{"fig6", "fig9", "invivo"} {
		a, err := mustRun(t, id, Config{Seed: 77, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := mustRun(t, id, Config{Seed: 77, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: row counts differ", id)
		}
		for i := range a {
			for j := range a[i] {
				if a[i][j] != b[i][j] {
					t.Fatalf("%s: row %d col %d differs across identical seeds: %q vs %q",
						id, i, j, a[i][j], b[i][j])
				}
			}
		}
	}
}
