package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.erdata.ERDataset
import repro.eval.Metrics
import repro.eval.Metrics.Confusion
import repro.ml.{MLP, TextFeatures}

/** Shared plumbing for the baseline simulators: record-pair text
  * serialization (the "COL val" style input of the language-model
  * methods, reduced to token streams) and train/test pair access.
  */
object BaselineUtil {

  /** Columns for text-pair classification: aText, bText, label. */
  def textPairs(pairs: DataFrame): DataFrame = {
    def side(p: String) = concat_ws(" ",
      col(s"${p}_a1"), col(s"${p}_a2"), col(s"${p}_a3"),
      when(col(s"${p}_num1") > 0, col(s"${p}_num1").cast("int").cast("string")).otherwise(""),
      when(col(s"${p}_num2") > 0, col(s"${p}_num2").cast("int").cast("string")).otherwise(""))
    pairs.select(
      col("problemId"), col("recA"), col("recB"),
      side("a") as "aText", side("b") as "bText", col("label"))
  }

  def filterProblems(pairs: DataFrame, ids: Seq[String]): DataFrame =
    pairs.filter(col("problemId").isin(ids: _*))

  /** `df` whole if it has at most `cap` rows, else a seeded sample of
    * about `cap` rows.
    */
  def sampleAtMost(df: DataFrame, cap: Int, seed: Long): DataFrame = {
    val n = df.count()
    if (n <= cap) df else df.sample(withReplacement = false, cap.toDouble / n, seed)
  }

  /** The neural pair-classifier path of the supervised text baselines:
    * fit an `MLP` classifier on the text pairs of `train`, featurized as
    * |a-b| ⊕ a⊙b of the `dim`-hashed `terms` of each side, broadcast it,
    * and return its confusion on the pairs of `testIds`.
    */
  def mlpConfusion(
      spark: SparkSession,
      ds: ERDataset,
      train: DataFrame,
      testIds: Seq[String],
      terms: String => Array[String],
      dim: Int,
      hidden: Int,
      epochs: Int,
      seed: Long,
  ): Confusion = {
    def featurize(aText: String, bText: String): Array[Double] =
      TextFeatures.densePair(
        TextFeatures.denseHashed(terms(aText), dim), TextFeatures.denseHashed(terms(bText), dim))
    val rows = train.collect()
    val xs = rows.map(r => featurize(r.getAs[String]("aText"), r.getAs[String]("bText"))).toIndexedSeq
    val ys = rows.map(_.getAs[Int]("label")).toIndexedSeq
    val model = MLP.fitClassifier(xs, ys, hidden = hidden, epochs = epochs, lr = 0.1, seed = seed)

    val b = spark.sparkContext.broadcast(model)
    val predUdf = udf((aText: String, bText: String) => b.value.predict(featurize(aText, bText)))
    val test = textPairs(filterProblems(ds.pairs, testIds))
      .withColumn("pred", predUdf(col("aText"), col("bText")))
    Metrics.confusion(test)
  }
}
