package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.erdata.ERDataset
import repro.eval.Metrics.Confusion
import repro.ml.TextFeatures

/** Simulator for Ditto (Li et al., VLDB 2020) — supervised
  * transformer-based matching. Substitution (DESIGN.md §3): DistilBERT
  * fine-tuning is replaced by a one-hidden-layer neural pair classifier
  * over dense hashed token features (|a-b| ⊕ a⊙b, 512-dim input,
  * 64 hidden units) trained with the paper's 10 epochs over the full
  * (or 50%) training pair set. The per-example O(in·hidden) SGD cost
  * reproduces the "neural fine-tuning dominates the runtime" shape, and
  * quality tracks the training-data size — the two axes the paper
  * analyzes for Ditto.
  */
object DittoSim {
  val Dim = 256          // per-record dense hash dims (pair input = 2·Dim)
  val Hidden = 64
  val TrainCap = 120000  // driver-side cap (stand-in for GPU batch limits)

  /** Train on `trainFraction` of the pairs of `trainIds`, evaluate on
    * `testIds`. Returns the pooled confusion on the test pairs.
    */
  def run(
      spark: SparkSession,
      ds: ERDataset,
      trainIds: Seq[String],
      testIds: Seq[String],
      trainFraction: Double = 1.0,
      epochs: Int = 10,
      seed: Long = 7,
  ): Confusion = {
    val trainPairs = BaselineUtil.textPairs(BaselineUtil.filterProblems(ds.pairs, trainIds))
    val kept =
      if (trainFraction >= 1.0) trainPairs
      else trainPairs.sample(withReplacement = false, trainFraction, seed)
    BaselineUtil.mlpConfusion(spark, ds, BaselineUtil.sampleAtMost(kept, TrainCap, seed),
      testIds, TextFeatures.tokens, Dim, Hidden, epochs, seed)
  }
}
