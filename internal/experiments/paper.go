package experiments

import (
	"fmt"

	"repro/internal/tpu"
)

// Paper is the whole reproduction: one field per table and figure of the
// evaluation, in paper order. Figures drawn from the same runs share a
// field (10 and 11, 12 and 13, 15 and 16).
type Paper struct {
	Table1     []Table1Row
	Fig4       []Series
	Fig5       []Series
	Fig6       []Series
	Fig7       []CoverageRow
	Fig8       []CoverageRow
	Fig9       []CoverageRow
	Fig10and11 []UtilRow
	Fig12and13 []UtilRow
	Table2     []Table2Version // TPUv2, then TPUv3
	Fig14      []Fig14Row
	Fig15and16 []OptRow
}

// Table2Version is Table II for one TPU generation.
type Table2Version struct {
	Version tpu.Version
	Cells   []Table2Cell
	Totals  map[string]int // appearances per "host:op" / "tpu:op"
}

// Reproduce computes every table and figure once, in paper order. The
// optimizer figures (14-16) run at lab.StepsOverride.
func Reproduce(lab *Lab) (*Paper, error) {
	p := &Paper{}
	artifacts := []struct {
		name string
		fill func() error
	}{
		{"table1", func() (err error) { p.Table1, err = Table1(); return }},
		{"fig4", func() (err error) { p.Fig4, err = Fig4(lab); return }},
		{"fig5", func() (err error) { p.Fig5, err = Fig5(lab); return }},
		{"fig6", func() (err error) { p.Fig6, err = Fig6(lab); return }},
		{"fig7", func() (err error) { p.Fig7, err = Fig7(lab); return }},
		{"fig8", func() (err error) { p.Fig8, err = Fig8(lab); return }},
		{"fig9", func() (err error) { p.Fig9, err = Fig9(lab); return }},
		{"fig10and11", func() (err error) { p.Fig10and11, err = Fig10and11(lab); return }},
		{"fig12and13", func() (err error) { p.Fig12and13, err = Fig12and13(lab); return }},
		{"table2", func() error {
			for _, v := range []tpu.Version{tpu.V2, tpu.V3} {
				cells, totals, err := Table2(lab, v)
				if err != nil {
					return err
				}
				p.Table2 = append(p.Table2, Table2Version{Version: v, Cells: cells, Totals: totals})
			}
			return nil
		}},
		{"fig14", func() (err error) { p.Fig14, err = Fig14(lab.StepsOverride); return }},
		{"fig15and16", func() (err error) { p.Fig15and16, err = Fig15and16(lab.StepsOverride); return }},
	}
	for _, a := range artifacts {
		if err := a.fill(); err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return p, nil
}
