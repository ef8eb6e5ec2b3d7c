package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ml.{LabeledVector, PoolVector, RandomForest}

/** One repository entry: the classifier of a cluster of similar ER
  * problems, plus the bookkeeping needed to compare new problems against
  * it (the selected training vectors P_{C^i} and their per-feature
  * histograms).
  */
final case class ClusterModel(
    id: Int,
    model: RandomForest,
    training: IndexedSeq[PoolVector],
    problemIds: Set[String],
    hist: IndexedSeq[FeatureHistogram],
)

/** The ER model repository (paper §4.4–4.5).
  *
  * @param clusters      stable-id → cluster model
  * @param graph         ER-problem similarity graph G_P (grows under sel_cov)
  * @param modelOf       problem id → stable cluster-model id
  * @param problemHists  per-problem feature histograms of every problem
  *                      integrated into the graph so far
  * @param vectorCounts  per-problem pair counts (|p_{k,l}|)
  * @param solvedT       T — problems whose vectors have been used for
  *                      training-data selection
  * @param labelsSpent   labeling budget consumed so far
  */
final case class Repository(
    clusters: Map[Int, ClusterModel],
    graph: ProblemGraph,
    modelOf: Map[String, Int],
    problemHists: Map[String, IndexedSeq[FeatureHistogram]],
    vectorCounts: Map[String, Long],
    solvedT: Set[String],
    labelsSpent: Int,
    nextId: Int,
) {
  def numClusters: Int = clusters.size
}

object ModelRepository {

  /** Classify `pairs` with a broadcast model — adds a `pred` column. */
  def classify(spark: SparkSession, pairs: DataFrame, model: RandomForest): DataFrame = {
    val b = spark.sparkContext.broadcast(model)
    val predUdf = udf((f: Seq[Double]) => b.value.predict(f.toArray))
    pairs.withColumn("pred", predUdf(col("features")))
  }

  /** Classify pairs of many problems in one distributed pass, each
    * problem with its assigned model (problemId → model map broadcast
    * into the UDF) — the "repository applied over partitioned record
    * pairs" path used by sel_base. A pair of a problem without a model
    * fails the job with an error that names the problem.
    */
  def classifyWithAssignments(
      spark: SparkSession,
      pairs: DataFrame,
      assignment: Map[String, RandomForest],
  ): DataFrame = {
    val b = spark.sparkContext.broadcast(assignment)
    val predUdf = udf { (pid: String, f: Seq[Double]) =>
      b.value.getOrElse(pid, throw new IllegalStateException(s"no model assigned to ER problem $pid"))
        .predict(f.toArray)
    }
    pairs.withColumn("pred", predUdf(col("problemId"), col("features")))
  }

  /** IDF-style record-uniqueness scores s_r (Eqs. 11–12): for every
    * record, count the distinct ER-problem clusters it occurs in and
    * score log(|C_P| / |C_{P|r}|). (The paper's Eq. 12 writes the ratio
    * inverted, which is ≤ 0 for all records; we use the standard IDF
    * orientation the text describes — "how unique a feature vector is".)
    */
  def idfScores(
      spark: SparkSession,
      pairs: DataFrame,
      clusterOfProblem: Map[String, Int],
  ): Map[Long, Double] = {
    val numClusters = clusterOfProblem.values.toSet.size
    if (numClusters == 0) return Map.empty
    val b = spark.sparkContext.broadcast(clusterOfProblem)
    val clusterUdf = udf((pid: String) => b.value.getOrElse(pid, -1))
    val counts = pairs
      .select(col("problemId"), explode(array(col("recA"), col("recB"))) as "rec")
      .withColumn("cluster", clusterUdf(col("problemId")))
      .filter(col("cluster") >= 0)
      .select("rec", "cluster").distinct()
      .groupBy("rec").agg(count(lit(1)) as "n")
      .collect()
    counts.map(r => r.getLong(0) -> math.log(numClusters.toDouble / r.getLong(1))).toMap
  }

  /** Fit the cluster classifier from already-selected training vectors. */
  def fitFromTraining(
      id: Int,
      training: IndexedSeq[PoolVector],
      problemIds: Set[String],
      numFeatures: Int,
      numBins: Int,
      seed: Long,
  ): ClusterModel = {
    val train = training.map(v => LabeledVector(v.features, v.oracleLabel))
    val model =
      if (train.isEmpty) RandomForest(IndexedSeq(repro.ml.Leaf(0.0)))
      else RandomForest.fit(train, seed = seed)
    val hist = DistributionAnalysis.histogramOfVectors(
      s"cluster$id", training.map(_.features), numFeatures, numBins)
    ClusterModel(id, model, training, problemIds, hist)
  }
}
