package community

import (
	"errors"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/svm"
)

// FeatureCount is the dimensionality of the merge-prediction feature
// vector: the three basic structural metrics (size, in-degree ratio,
// self-similarity), their running standard deviations, their first- and
// second-order change indicators, and the community age (§4.3).
const FeatureCount = 13

// MergeDataset is the labeled set for the Fig 6b predictor. Y[i] is +1
// when the community merges into another at the next snapshot.
type MergeDataset struct {
	X   [][]float64
	Y   []int
	Age []int32 // community age in days at sample time
}

// sign returns the paper's change indicator: -1, 0, or +1.
func sign(x float64) float64 {
	switch {
	case x > 1e-12:
		return 1
	case x < -1e-12:
		return -1
	default:
		return 0
	}
}

// BuildMergeDataset extracts one sample per community-snapshot with at
// least three observations. Communities born on excludeBirthDay (the
// network-merge day) are skipped, following the paper ("we do not consider
// communities created on the day of the network merge with 5Q").
// Pass excludeBirthDay < 0 to disable the exclusion.
func BuildMergeDataset(res *Result, excludeBirthDay int32) *MergeDataset {
	ds := &MergeDataset{}
	every := res.Opt.SnapshotEvery
	// One history's metric columns, reused across histories: sample i's
	// running stddev is over the prefix [:i+1].
	var size, in, sim []float64
	for _, h := range res.Histories {
		if excludeBirthDay >= 0 && h.Birth == excludeBirthDay {
			continue
		}
		fs := h.Features
		if len(fs) < 3 {
			continue
		}
		size, in, sim = size[:0], in[:0], sim[:0]
		for _, f := range fs {
			size = append(size, float64(f.Size))
			in = append(in, f.InRatio)
			sim = append(sim, f.SelfSim)
		}
		for i := 2; i < len(fs); i++ {
			cur, prev, prev2 := fs[i], fs[i-1], fs[i-2]
			d1s := float64(cur.Size - prev.Size)
			d1i := cur.InRatio - prev.InRatio
			d1m := cur.SelfSim - prev.SelfSim
			d2s := d1s - float64(prev.Size-prev2.Size)
			d2i := d1i - (prev.InRatio - prev2.InRatio)
			d2m := d1m - (prev.SelfSim - prev2.SelfSim)
			age := cur.Day - h.Birth
			x := []float64{
				float64(cur.Size), cur.InRatio, cur.SelfSim,
				stats.StdDev(size[:i+1]), stats.StdDev(in[:i+1]), stats.StdDev(sim[:i+1]),
				sign(d1s), sign(d1i), sign(d1m),
				sign(d2s), sign(d2i), sign(d2m),
				float64(age),
			}
			// Label: merges at the next snapshot = this is the last
			// feature and the history died by merge right after.
			label := -1
			if i == len(fs)-1 && h.MergedInto != 0 && h.Death >= 0 && h.Death <= cur.Day+every {
				label = 1
			}
			ds.X = append(ds.X, x)
			ds.Y = append(ds.Y, label)
			ds.Age = append(ds.Age, age)
		}
	}
	return ds
}

// AgeBinAccuracy is one point of the Fig 6b curve: per-class prediction
// accuracy for test communities in one age bin.
type AgeBinAccuracy struct {
	AgeLo, AgeHi int32
	svm.Metrics
}

// ErrDatasetTooSmall is returned when the dataset cannot support training.
var ErrDatasetTooSmall = errors.New("community: merge dataset too small")

// EvaluateMergePrediction trains the SVM on a 70% split and reports
// per-age-bin accuracy on the held-out 30% (Fig 6b), plus overall metrics.
func EvaluateMergePrediction(ds *MergeDataset, binWidth int32, opt svm.Options) ([]AgeBinAccuracy, svm.Metrics, error) {
	if len(ds.X) < 10 {
		return nil, svm.Metrics{}, ErrDatasetTooSmall
	}
	if binWidth <= 0 {
		binWidth = 10
	}
	// Stratified 70/30 split: merge samples are rare, so positives are
	// split separately to guarantee both sides see both classes.
	rng := stats.NewRand(opt.Seed + 99)
	var posIdx, negIdx []int
	for i, y := range ds.Y {
		if y == 1 {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	rng.Shuffle(len(posIdx), func(a, b int) { posIdx[a], posIdx[b] = posIdx[b], posIdx[a] })
	rng.Shuffle(len(negIdx), func(a, b int) { negIdx[a], negIdx[b] = negIdx[b], negIdx[a] })
	var trX, teX [][]float64
	var trY, teY []int
	var teAge []int32
	take := func(idx []int) {
		cut := len(idx) * 7 / 10
		if cut == 0 && len(idx) > 1 {
			cut = 1
		}
		for p, i := range idx {
			if p < cut {
				trX = append(trX, ds.X[i])
				trY = append(trY, ds.Y[i])
			} else {
				teX = append(teX, ds.X[i])
				teY = append(teY, ds.Y[i])
				teAge = append(teAge, ds.Age[i])
			}
		}
	}
	take(posIdx)
	take(negIdx)
	opt.ClassWeighted = true
	model, err := svm.Train(trX, trY, opt)
	if err != nil {
		return nil, svm.Metrics{}, err
	}
	overall := model.Evaluate(teX, teY)

	// Bin test samples by age.
	maxAge := int32(0)
	for _, a := range teAge {
		if a > maxAge {
			maxAge = a
		}
	}
	var bins []AgeBinAccuracy
	for lo := int32(0); lo <= maxAge; lo += binWidth {
		hi := lo + binWidth
		var bx [][]float64
		var by []int
		for i, a := range teAge {
			if a >= lo && a < hi {
				bx = append(bx, teX[i])
				by = append(by, teY[i])
			}
		}
		if len(bx) == 0 {
			continue
		}
		bins = append(bins, AgeBinAccuracy{AgeLo: lo, AgeHi: hi, Metrics: model.Evaluate(bx, by)})
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i].AgeLo < bins[j].AgeLo })
	return bins, overall, nil
}

// PositiveFraction reports the share of positive labels (diagnostic for
// class imbalance).
func (ds *MergeDataset) PositiveFraction() float64 {
	if len(ds.Y) == 0 {
		return math.NaN()
	}
	pos := 0
	for _, y := range ds.Y {
		if y == 1 {
			pos++
		}
	}
	return float64(pos) / float64(len(ds.Y))
}
