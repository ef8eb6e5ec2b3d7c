package repro.al

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.PoolVector

/** Shared AL contract and pool plumbing.
  *
  * A "pool" is a DataFrame of unlabeled candidate vectors — columns
  * (problemId, recA, recB, features, label) — restricted to the ER
  * problems an AL run may draw from. `label` is the ground truth that
  * plays the human labeling oracle: it is only *revealed* (converted to
  * training data) when a vector is selected, and each reveal costs one
  * unit of budget. This mirrors the paper's experimental setup, which
  * also charges gold labels against the budget.
  */
final case class ALConfig(
    /** k in Eq. 10 — committee size of the bootstrap uncertainty. */
    kModels: Int = 20,
    /** vectors labeled per AL iteration. */
    batchSize: Int = 100,
    /** size of the deterministic warm-start sample. */
    initSize: Int = 50,
)

trait ActiveLearner extends Serializable {
  def name: String

  /** Select and label up to `budget` vectors from `pool`.
    *
    * @param idf record-uniqueness scores s_r (Eqs. 11–12); empty map
    *            disables the extension.
    */
  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector]
}

object ActiveLearner {
  def toPoolVector(r: Row): PoolVector = PoolVector(
    r.getAs[String]("problemId"),
    r.getAs[Long]("recA"),
    r.getAs[Long]("recB"),
    r.getAs[Seq[Double]]("features").toArray,
    r.getAs[Int]("label"))

  /** Deterministic class-covering warm start: a third of the sample from
    * the highest-mean-feature pairs (likely matches), a third from the
    * lowest (likely non-matches), a third hash-random for coverage of
    * the middle. Avoids the degenerate one-class seed that a uniform
    * random draw produces on match-skewed pools.
    */
  def warmStart(pool: DataFrame, n: Int): IndexedSeq[PoolVector] = {
    val withMean = pool.withColumn("fmean", aggregate(col("features"), lit(0.0), (a, x) => a + x))
    val third = math.max(1, n / 3)
    val hi = withMean.orderBy(desc("fmean"), col("recA"), col("recB")).limit(n - 2 * third)
    val lo = withMean.orderBy(asc("fmean"), col("recA"), col("recB")).limit(third)
    val rnd = withMean.orderBy(abs(hash(col("recA"), col("recB"))), col("recA")).limit(third)
    (hi.collect() ++ lo.collect() ++ rnd.collect()).toIndexedSeq
      .map(toPoolVector)
      .distinctBy(v => (v.problemId, v.recA, v.recB))
  }

  /** One iteration's pool with a `score` column (highest is labeled
    * first), and the broadcasts to release once the batch is collected.
    */
  final case class Scored(pool: DataFrame, broadcasts: Seq[Broadcast[_]])

  /** The selection loop of every learner. A pool that fits the budget is
    * returned whole. Otherwise, after the warm start, each iteration labels
    * the `batchSize` highest-scored unlabeled rows, ties broken by
    * (recA, recB), until the budget is spent or no row is left.
    *
    * @param scorer evaluated once, after the warm start; scores the pool
    *               given the labeled vectors so far and the iteration
    */
  def selectLoop(pool: DataFrame, budget: Int, cfg: ALConfig)(
      scorer: => (IndexedSeq[PoolVector], Int) => Scored): IndexedSeq[PoolVector] = {
    if (pool.count() <= budget) return pool.collect().toIndexedSeq.map(toPoolVector)

    var selected = warmStart(pool, math.min(cfg.initSize, budget))
    val score = scorer
    val key = concat_ws("|", col("problemId"), col("recA"), col("recB"))
    var iter = 0
    while (selected.size < budget) {
      val scored = score(selected, iter)
      val labeled = selected.map(v => s"${v.problemId}|${v.recA}|${v.recB}")
      val picked = scored.pool
        .filter(!key.isin(labeled: _*))
        .orderBy(desc("score"), col("recA"), col("recB"))
        .limit(math.min(cfg.batchSize, budget - selected.size))
        .collect()
        .toIndexedSeq
        .map(toPoolVector)
      scored.broadcasts.foreach(_.destroy())
      if (picked.isEmpty) return selected
      selected = selected ++ picked
      iter += 1
    }
    selected
  }

  /** Mean IDF-style uniqueness score s(w) of a pair (Eq. 11). */
  def pairScore(idf: Map[Long, Double], recA: Long, recB: Long): Double =
    (idf.getOrElse(recA, 0.0) + idf.getOrElse(recB, 0.0)) / 2.0
}
