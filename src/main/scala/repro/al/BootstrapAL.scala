package repro.al

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.{LabeledVector, PoolVector, RandomForest}

/** The uncertainty AL method of Mozafari et al. (paper §4.4,
  * "Bootstrap"): per iteration, k classifiers are bagged from the
  * current training data; a pool vector's uncertainty is
  * unc(w) = p(1-p) with p the fraction of committee matches (Eq. 10),
  * extended by the IDF-style record-uniqueness score s(w) (Eqs. 11–12).
  *
  * The committee is exactly a k-tree random forest (bagging with
  * replacement); scoring the pool is one distributed pass with the
  * forest broadcast into a UDF — the Spark mapping of "apply stored
  * models over partitioned record pairs".
  */
object BootstrapAL extends ActiveLearner {
  val name = "Bootstrap"

  def select(
      spark: SparkSession,
      pool: DataFrame,
      budget: Int,
      cfg: ALConfig,
      idf: Map[Long, Double],
      seed: Long,
  ): IndexedSeq[PoolVector] = ActiveLearner.selectLoop(pool, budget, cfg) { (selected, iter) =>
    val sc = spark.sparkContext
    val train = selected.map(v => LabeledVector(v.features, v.oracleLabel))
    val forest = RandomForest.fit(train, numTrees = cfg.kModels, maxDepth = 6,
      seed = seed * 31 + iter)
    val bForest = sc.broadcast(forest)
    val bIdf    = sc.broadcast(idf)
    val scoreUdf = udf { (features: Seq[Double], recA: Long, recB: Long) =>
      val f   = bForest.value.voteFraction(features.toArray)
      val unc = f * (1.0 - f)
      val s   = ActiveLearner.pairScore(bIdf.value, recA, recB)
      // deterministic micro-jitter breaks ties without an RNG on executors
      val jit = ((recA * 2654435761L + recB) & 0xFFFF).toDouble / 0xFFFF.toDouble * 1e-6
      unc * (1.0 + s) + jit
    }
    ActiveLearner.Scored(
      pool.withColumn("score", scoreUdf(col("features"), col("recA"), col("recB"))),
      Seq(bForest, bIdf))
  }
}
