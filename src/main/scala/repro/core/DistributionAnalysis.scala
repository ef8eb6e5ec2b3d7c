package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Empirical distribution of one similarity feature of one ER problem,
  * as a fixed-width histogram over [0,1] plus exact moments.
  */
final case class FeatureHistogram(
    problemId: String,
    feature: Int,
    bins: Array[Long],
    total: Long,
    mean: Double,
    std: Double,
) {
  /** Empirical CDF evaluated at the right edge of every bin. */
  def cdf: Array[Double] = {
    val out = new Array[Double](bins.length)
    var acc = 0.0
    var i = 0
    while (i < bins.length) { acc += bins(i); out(i) = if (total > 0) acc / total else 0.0; i += 1 }
    out
  }
  /** Bin proportions with ε-smoothing (for PSI's log-ratio). */
  def props(eps: Double = 1e-4): Array[Double] =
    bins.map(c => math.max(if (total > 0) c.toDouble / total else 0.0, eps))
}

/** The univariate distribution test used to compare two ER problems'
  * per-feature similarity distributions (paper §4.2). Distances are
  * mapped into similarities in [0,1].
  */
sealed trait DistTest extends Serializable {
  def name: String
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double
}

/** Kolmogorov–Smirnov: sup |CDF_a - CDF_b| (Eq. 1); sim = 1 - KS. */
case object KS extends DistTest {
  val name = "KS"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val ca = a.cdf; val cb = b.cdf
    var m = 0.0; var i = 0
    while (i < ca.length) { val d = math.abs(ca(i) - cb(i)); if (d > m) m = d; i += 1 }
    1.0 - m
  }
}

/** Wasserstein distance: Σ |CDF_a[i] - CDF_b[i]| (Eq. 2), normalized by
  * the number of bins so it lands in [0,1] over the [0,1] domain;
  * sim = 1 - WD.
  */
case object WD extends DistTest {
  val name = "WD"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val ca = a.cdf; val cb = b.cdf
    var s = 0.0; var i = 0
    while (i < ca.length) { s += math.abs(ca(i) - cb(i)); i += 1 }
    1.0 - s / ca.length
  }
}

/** Population stability index: Σ (p_i - q_i) ln(p_i/q_i) (Eq. 3) with
  * ε-smoothed bin proportions; sim = 1/(1+PSI) (PSI is unbounded above).
  */
case object PSI extends DistTest {
  val name = "PSI"
  def similarity(a: FeatureHistogram, b: FeatureHistogram): Double = {
    val pa = a.props(); val pb = b.props()
    var s = 0.0; var i = 0
    while (i < pa.length) { s += (pa(i) - pb(i)) * math.log(pa(i) / pb(i)); i += 1 }
    1.0 / (1.0 + s)
  }
}

object DistTest {
  val all: Seq[DistTest] = Seq(KS, WD, PSI)
}

/** Distributed similarity-distribution analysis (paper §4.2).
  *
  * One aggregation pass over the pair DataFrame computes, per
  * (problem, feature), a `numBins`-bin histogram plus Σx and Σx² — i.e.
  * everything KS/WD/PSI and the std-dev feature weights need. The
  * resulting per-problem summaries are tiny (problems × features × bins)
  * and all pairwise problem comparisons run on the driver.
  */
object DistributionAnalysis {
  val DefaultBins = 100

  /** Histograms of every (problemId, feature) in `pairs`. */
  def histograms(
      pairs: DataFrame,
      numFeatures: Int,
      numBins: Int = DefaultBins,
  ): Map[String, IndexedSeq[FeatureHistogram]] = {
    val agg = pairs
      .select(col("problemId"), posexplode(col("features")).as(Seq("feature", "v")))
      .withColumn("bin", least(floor(col("v") * numBins).cast("int"), lit(numBins - 1)))
      .groupBy("problemId", "feature", "bin")
      .agg(count(lit(1)) as "n", sum("v") as "s1", sum(col("v") * col("v")) as "s2")
      .collect()

    agg.groupBy(_.getString(0)).map { case (pid, rows) =>
      val byFeature = rows.groupBy(_.getInt(1))
      val hists = (0 until numFeatures).map { f =>
        val bins = new Array[Long](numBins)
        var n = 0L; var s1 = 0.0; var s2 = 0.0
        byFeature.getOrElse(f, Array.empty).foreach { r =>
          bins(r.getInt(2)) = r.getLong(3)
          n += r.getLong(3); s1 += r.getDouble(4); s2 += r.getDouble(5)
        }
        fromMoments(pid, f, bins, n, s1, s2)
      }
      pid -> hists
    }
  }

  /** Driver-side histogram of an in-memory vector set (used for the
    * per-cluster training-vector summaries P_{C^i} that `sel_base`
    * compares new problems against).
    */
  def histogramOfVectors(
      id: String,
      vecs: Seq[Array[Double]],
      numFeatures: Int,
      numBins: Int = DefaultBins,
  ): IndexedSeq[FeatureHistogram] =
    (0 until numFeatures).map { f =>
      val bins = new Array[Long](numBins)
      var s1 = 0.0; var s2 = 0.0
      vecs.foreach { v =>
        val x = v(f)
        bins(math.min((x * numBins).toInt, numBins - 1)) += 1
        s1 += x; s2 += x * x
      }
      fromMoments(id, f, bins, vecs.size.toLong, s1, s2)
    }

  /** A histogram from its bins, count n, Σx and Σx². */
  private def fromMoments(
      id: String, feature: Int, bins: Array[Long], n: Long, s1: Double, s2: Double,
  ): FeatureHistogram = {
    val mean = if (n > 0) s1 / n else 0.0
    val varr = if (n > 0) math.max(0.0, s2 / n - mean * mean) else 0.0
    FeatureHistogram(id, feature, bins, n, mean, math.sqrt(varr))
  }

  /** Aggregated problem similarity sim_p: the per-feature test
    * similarities averaged with std-dev weights (a feature's standard
    * deviation is its discriminative power — near-constant features
    * contribute little).
    */
  def problemSimilarity(
      a: IndexedSeq[FeatureHistogram],
      b: IndexedSeq[FeatureHistogram],
      test: DistTest,
  ): Double = {
    require(a.length == b.length, "feature spaces must have the same size")
    var num = 0.0; var den = 0.0; var plain = 0.0
    var f = 0
    while (f < a.length) {
      val s = test.similarity(a(f), b(f))
      val w = (a(f).std + b(f).std) / 2.0
      num += w * s; den += w; plain += s
      f += 1
    }
    if (den > 1e-12) num / den else plain / a.length
  }
}
