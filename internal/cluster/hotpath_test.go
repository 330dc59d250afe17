package cluster

import (
	"fmt"
	"runtime"
	"testing"
)

// TestGOMAXPROCSInvariantTraining pins that training does not depend on the
// core count: the tensor kernels' parallel reductions (tensor.ParallelFor,
// tensor.ParSignedMeans) fan out inside a bucket by GOMAXPROCS, yet an
// overlapped run — post-backward or interleaved launch — is bitwise
// identical at GOMAXPROCS 1 and 16, including for stochastic quantizers.
func TestGOMAXPROCSInvariantTraining(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, algo := range []string{"a2sgd", "topk", "qsgd"} {
		for _, interleave := range []bool{false, true} {
			cfg := bucketCfg(algo, 4, fourBucketBytes, true)
			cfg.Interleave = interleave
			runtime.GOMAXPROCS(1)
			serial, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(16)
			parallel, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s interleave=%v", algo, interleave)
			if serial.Buckets < 4 || parallel.Buckets != serial.Buckets {
				t.Fatalf("%s: bucket counts %d vs %d", label, serial.Buckets, parallel.Buckets)
			}
			assertRunsIdentical(t, label+" GOMAXPROCS 16 vs 1", serial, parallel)
		}
	}
}
