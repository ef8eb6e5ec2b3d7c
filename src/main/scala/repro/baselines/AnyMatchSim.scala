package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.TextFeatures

/** Simulator for AnyMatch (Zhang et al., EDBT 2025) — small-language-model
  * matching (GPT-2) trained on a *sampled* subset of pairs. Substitution
  * (DESIGN.md §3): a small neural pair classifier over dense hashed
  * char-3-gram features, trained on n_r sampled training pairs. Sampling
  * plus the smaller network is what gives AnyMatch its runtime edge over
  * Ditto in the paper; quality sits between the unsupervised methods and
  * the fully-supervised ones.
  */
object AnyMatchSim {
  val Dim = 256
  val Hidden = 64
  /** n_r — parameterized sample size of training record pairs. */
  val DefaultSample = 5000

  def run(
      spark: SparkSession,
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      sampleSize: Int = DefaultSample,
      epochs: Int = 15,
      seed: Long = 7,
  ): Confusion = {
    val trainPairs = BaselineUtil.textPairs(BaselineUtil.filterProblems(ds.pairs, trainIds))
    BaselineUtil.mlpConfusion(spark, ds, BaselineUtil.sampleAtMost(trainPairs, sampleSize, seed),
      testIds, TextFeatures.charNGrams(_), Dim, Hidden, epochs, seed)
  }
}
