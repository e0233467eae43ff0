package experiments

import "repro/internal/predictor"

// e5 reproduces Section 5.2: the loop predictor on top of TAGE+IUM.
// Paper: 611 -> 593 MPPKI, "approximately a 3% reduction of the
// performance loss".
func e5(s *suites) Report {
	var r Report
	b := s.get("tage+ium", predictor.ScenarioA).TotalMPPKI()
	w := s.get("tage+ium+loop", predictor.ScenarioA).TotalMPPKI()
	r.row("TAGE+IUM MPPKI", "611", "%.0f", b)
	r.row("TAGE+IUM+loop MPPKI", "593", "%.0f", w)
	r.row("reduction", "-3%", "%s", pct(w-b, b))
	r.check("loop predictor reduces MPPKI", w < b)
	r.check("reduction is modest (<15%)", w > b*0.85)
	return r
}

// e6 reproduces Section 5.3: the global Statistical Corrector on top of
// TAGE+IUM+loop. Paper: 593 -> 580 MPPKI ("approximately a 2% reduction").
func e6(s *suites) Report {
	var r Report
	b := s.get("tage+ium+loop", predictor.ScenarioA).TotalMPPKI()
	w := s.get("isl-tage", predictor.ScenarioA).TotalMPPKI()
	r.row("TAGE+IUM+loop MPPKI", "593", "%.0f", b)
	r.row("ISL-TAGE (+SC) MPPKI", "580", "%.0f", w)
	r.row("reduction", "-2%", "%s", pct(w-b, b))
	r.check("SC reduces MPPKI", w < b)
	r.check("reduction is modest (<12%)", w > b*0.88)
	return r
}

// e7 reproduces Section 5.4: ISL-TAGE reduces the misprediction rate of
// the 512Kbit TAGE by ~6%, roughly what scaling TAGE to 2Mbits buys.
func e7(s *suites) Report {
	var r Report
	a := s.get("tage", predictor.ScenarioA).TotalMPPKI()
	b := s.get("isl-tage", predictor.ScenarioA).TotalMPPKI()
	c := s.get("tage-2m", predictor.ScenarioA).TotalMPPKI()
	r.row("TAGE 512Kb MPPKI", "617", "%.0f", a)
	r.row("ISL-TAGE 512Kb MPPKI", "580", "%.0f", b)
	r.row("TAGE 2Mb MPPKI", "~580", "%.0f", c)
	r.row("ISL-TAGE gain over TAGE", "-6%", "%s", pct(b-a, a))
	r.check("ISL-TAGE beats same-size TAGE", b < a)
	r.check("side predictors worth roughly a 4x size scaling",
		b <= a && (c >= b*0.85 || b <= c*1.15))
	return r
}
