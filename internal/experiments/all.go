package experiments

import (
	"fmt"
	"io"
)

// Exhibit is one named table or figure reproduction.
type Exhibit struct {
	ID   string
	Desc string
	Run  func(w io.Writer, env *Env) error
}

// Exhibits lists every reproduced table and figure, in paper order.
func Exhibits() []Exhibit {
	return []Exhibit{
		{"table1", "dataset inventory (densities per level)", Table1},
		{"fig7", "NaST vs OpST on z10 fine level", Fig7},
		{"fig11", "GSP/OpST/AKDTree rate-distortion at six densities", Fig11},
		{"fig12", "ZF vs GSP on z10 coarse level", Fig12},
		{"fig13", "OpST vs AKDTree pre-process time vs density", Fig13},
		{"fig14", "TAC vs baselines rate-distortion (Run1)", Fig14},
		{"fig15", "TAC vs baselines rate-distortion (Run2)", Fig15},
		{"fig16", "zMesh reordering on tree- vs block-structured data", Fig16},
		{"fig18", "bit-rate vs error bound per level (Run1_Z2)", Fig18},
		{"fig19", "power-spectrum error with adaptive error bounds", Fig19},
		{"table2", "overall throughput of 1D/3D/TAC", Table2},
		{"table3", "halo-finder quality with adaptive error bounds", Table3},
		{"ablation_dims", "[extra] 1D vs 2D vs 3D prediction on the same field", AblationDims},
		{"ablation_kd", "[extra] AKDTree adaptive split vs classic k-d tree", AblationClassicKD},
		{"fields", "[extra] TAC across all six Nyx fields", Fields},
	}
}

// RunAll executes every exhibit in order, separating them with blank lines.
func RunAll(w io.Writer, env *Env) error {
	for i, ex := range Exhibits() {
		if i > 0 {
			fprintf(w, "\n")
		}
		if err := ex.Run(w, env); err != nil {
			return fmt.Errorf("experiments: %s: %w", ex.ID, err)
		}
	}
	return nil
}

// RunByID executes one exhibit by its ID.
func RunByID(w io.Writer, env *Env, id string) error {
	for _, ex := range Exhibits() {
		if ex.ID == id {
			return ex.Run(w, env)
		}
	}
	return fmt.Errorf("experiments: unknown exhibit %q", id)
}
