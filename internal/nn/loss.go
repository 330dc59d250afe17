package nn

import (
	"math"

	"a2sgd/internal/tensor"
)

// SoftmaxCE computes the mean softmax cross-entropy loss over a batch of
// logits (rows = samples, cols = classes) with integer labels, and the
// gradient dL/dlogits in the same shape. Numerically stabilized by the
// per-row max shift.
func SoftmaxCE(logits *tensor.Mat, labels []int) (loss float64, dlogits *tensor.Mat) {
	d := tensor.NewMat(logits.Rows, logits.Cols)
	return SoftmaxCEInto(d, logits, labels), d
}

// SoftmaxCEInto is SoftmaxCE writing the gradient into d (same shape as
// logits, not aliasing it), for callers that reuse the buffer every step.
func SoftmaxCEInto(d, logits *tensor.Mat, labels []int) (loss float64) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCE label count mismatch")
	}
	if d.Rows != logits.Rows || d.Cols != logits.Cols {
		panic("nn: SoftmaxCE gradient shape mismatch")
	}
	invB := 1 / float32(logits.Rows)
	for s := 0; s < logits.Rows; s++ {
		row := logits.Row(s)
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		logSum := math.Log(sum)
		lbl := labels[s]
		if lbl < 0 || lbl >= logits.Cols {
			panic("nn: SoftmaxCE label out of range")
		}
		loss += -(float64(row[lbl]-m) - logSum)
		dst := d.Row(s)
		for c, v := range row {
			p := float32(math.Exp(float64(v-m)) / sum)
			if c == lbl {
				p -= 1
			}
			dst[c] = p * invB
		}
	}
	loss /= float64(logits.Rows)
	return loss
}

// Accuracy returns the top-1 accuracy of logits against labels.
func Accuracy(logits *tensor.Mat, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for s := 0; s < logits.Rows; s++ {
		if tensor.MaxIdx(logits.Row(s)) == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

// Perplexity converts a mean cross-entropy (nats per token) into the
// perplexity score the paper reports for LSTM-PTB.
func Perplexity(meanCE float64) float64 { return math.Exp(meanCE) }
