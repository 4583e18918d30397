"""SciMark SparseMatmult — Table 4: "unstructured sparse matrix stored in
compressed-row format with a prescribed sparsity structure [...] exercises
indirection addressing and non-regular memory references."

Port of SciMark 2.0 SparseCompRow.java including its structured fill
pattern.  The inner loop uses an explicit bound variable exactly like the
original — rewriting it to ``row.Length`` is the paper's section-5
bounds-check experiment, checked in ``tests/test_paper_findings.py``.
Flops = 2 * nz * reps.
"""

from ..registry import Benchmark, register
from .common import RANDOM_SEED, SCI_RANDOM_SOURCE

SOURCE = SCI_RANDOM_SOURCE + """
class SparseCompRow {
    static void MatMult(double[] y, double[] val, int[] row, int[] col,
                        double[] x, int numIterations) {
        int m = row.Length - 1;
        for (int reps = 0; reps < numIterations; reps++) {
            for (int r = 0; r < m; r++) {
                double total = 0.0;
                int rowR = row[r];
                int rowRp1 = row[r + 1];
                for (int i = rowR; i < rowRp1; i++) {
                    total += x[col[i]] * val[i];
                }
                y[r] = total;
            }
        }
    }

    static void Main() {
        int n = Params.N;
        int nz = Params.NZ;
        int reps = Params.Reps;
        SciRandom rng = new SciRandom(Params.Seed);

        double[] x = new double[n];
        rng.FillVector(x);
        double[] y = new double[n];

        int nr = nz / n;        // average number of nonzeros per row
        int anz = nr * n;       // _actual_ number of nonzeros
        double[] val = new double[anz];
        rng.FillVector(val);
        int[] col = new int[anz];
        int[] row = new int[n + 1];

        row[0] = 0;
        for (int r = 0; r < n; r++) {
            int rowr = row[r];
            row[r + 1] = rowr + nr;
            int step = r / nr;
            if (step < 1) { step = 1; }
            for (int i = 0; i < nr; i++) { col[rowr + i] = i * step; }
        }

        long flops = (long)anz * 2L * (long)reps;
        Bench.Start("SciMark:Sparse");
        MatMult(y, val, row, col, x, reps);
        Bench.Stop("SciMark:Sparse");
        Bench.Flops("SciMark:Sparse", flops);

        double checksum = 0.0;
        for (int i = 0; i < n; i++) { checksum += y[i]; }
        Bench.Result("SciMark:Sparse", checksum);
        if (checksum != checksum) { Bench.Fail("Sparse produced NaN"); }
    }
}
"""

SPARSE = register(
    Benchmark(
        name="scimark.sparse",
        suite="scimark",
        description="sparse matrix-vector multiply (CRS), SciMark 2.0 port",
        source=SOURCE,
        params={"N": 100, "NZ": 500, "Reps": 4, "Seed": RANDOM_SEED},
        paper_params={"N": 1000, "NZ": 5000, "Reps": "timed", "Seed": RANDOM_SEED},
        sections=("SciMark:Sparse",),
    )
)
