// Quickstart: factor a tall-skinny matrix on the 3D virtual systolic
// array, inspect R, and verify the factorization.
package main

import (
	"fmt"
	"log"

	"pulsarqr"
)

func main() {
	// A 2048×192 tall-skinny matrix: 11×1 tiles at the default nb=192 (the
	// last tile row ragged), so the whole factorization is one panel reduced
	// by the tree.
	a := pulsarqr.RandomMatrix(2048, 192, 1)

	opts := pulsarqr.DefaultOptions() // hierarchical tree, systolic engine
	opts.Threads = 4

	f, err := pulsarqr.Factor(a, opts)
	if err != nil {
		log.Fatal(err)
	}

	r := f.R()
	fmt.Printf("factored %dx%d: R is %dx%d upper triangular\n", a.Rows, a.Cols, r.Rows, r.Cols)
	fmt.Printf("R(0,0..4) = %.4f %.4f %.4f %.4f %.4f\n",
		r.At(0, 0), r.At(0, 1), r.At(0, 2), r.At(0, 3), r.At(0, 4))

	// Cheap correctness check without forming Q: AᵀA must equal RᵀR.
	fmt.Printf("relative residual ‖AᵀA − RᵀR‖/‖AᵀA‖ = %.3e\n", f.Residual(a))

	// Q is available implicitly: applying Qᵀ then Q must round-trip.
	b := pulsarqr.RandomMatrix(2048, 1, 2)
	x, err := pulsarqr.LeastSquares(a, b, opts)
	if err != nil {
		log.Fatal(err)
	}
	grad := a.Transpose().Mul(a.Mul(x).Sub(b))
	fmt.Printf("least-squares gradient ‖Aᵀ(Ax−b)‖_max = %.3e (zero ⇒ optimal)\n", grad.MaxAbs())
}
