package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestData}
import repro.erdata._

class FeatureVectorsSpec extends SparkSpec {
  import spark.implicits._

  private def pairDf(rows: Seq[(String, String, String, String, Double, Double)]) =
    rows.toDF("a_a1", "b_a1", "a_a2", "b_a2", "a_num1", "b_num1")

  test("jaccard of identical token sets is 1") {
    val df = pairDf(Seq(("canon eos 5d", "canon eos 5d", "", "", 0, 0)))
      .select(FeatureVectors.jaccard($"a_a1", $"b_a1") as "j")
    assert(df.collect()(0).getDouble(0) == 1.0)
  }

  test("jaccard of disjoint token sets is 0") {
    val df = pairDf(Seq(("canon eos", "nikon d750", "", "", 0, 0)))
      .select(FeatureVectors.jaccard($"a_a1", $"b_a1") as "j")
    assert(df.collect()(0).getDouble(0) == 0.0)
  }

  test("jaccard of half-overlapping sets is |∩|/|∪|") {
    val df = pairDf(Seq(("a b c", "b c d", "", "", 0, 0)))
      .select(FeatureVectors.jaccard($"a_a1", $"b_a1") as "j")
    assert(math.abs(df.collect()(0).getDouble(0) - 0.5) < 1e-12)
  }

  test("jaccard treats empty/whitespace strings as no evidence (0)") {
    val df = pairDf(Seq(("", "canon", "", "", 0, 0), ("   ", "canon", "", "", 0, 0)))
      .select(FeatureVectors.jaccard($"a_a1", $"b_a1") as "j")
    assert(df.collect().forall(_.getDouble(0) == 0.0))
  }

  test("jaccard tokenization splits on punctuation and case-folds") {
    val df = pairDf(Seq(("Canon-EOS", "canon eos", "", "", 0, 0)))
      .select(FeatureVectors.jaccard($"a_a1", $"b_a1") as "j")
    assert(df.collect()(0).getDouble(0) == 1.0)
  }

  test("levSim matches DuckDB levenshtein (oracle)") {
    val df = pairDf(Seq(
      ("x", "x", "canon", "cannon", 0, 0),
      ("x", "x", "nikon", "nikkor", 0, 0),
      ("x", "x", "sony", "sony", 0, 0)))
    val got = df.select($"a_a2", $"b_a2",
      round(FeatureVectors.levSim($"a_a2", $"b_a2"), 6) as "sim")
    Oracle.assertEquivalent(
      got,
      """SELECT a_a2, b_a2,
        |  ROUND(1.0 - CAST(levenshtein(a_a2, b_a2) AS DOUBLE) /
        |        GREATEST(LENGTH(a_a2), LENGTH(b_a2)), 6) AS sim
        |FROM t""".stripMargin,
      "t" -> df.select("a_a2", "b_a2"))
  }

  test("levSim of an empty side is 0") {
    val df = pairDf(Seq(("x", "x", "", "canon", 0, 0)))
      .select(FeatureVectors.levSim($"a_a2", $"b_a2") as "s")
    assert(df.collect()(0).getDouble(0) == 0.0)
  }

  test("numSim of equal positives is 1, of missing (<=0) is 0") {
    val df = pairDf(Seq(("", "", "", "", 100.0, 100.0), ("", "", "", "", 0.0, 100.0)))
      .select(FeatureVectors.numSim($"a_num1", $"b_num1") as "s")
    val out = df.collect().map(_.getDouble(0))
    assert(out(0) == 1.0 && out(1) == 0.0)
  }

  test("numSim is 1 - |a-b|/max(a,b)") {
    val df = pairDf(Seq(("", "", "", "", 50.0, 100.0)))
      .select(FeatureVectors.numSim($"a_num1", $"b_num1") as "s")
    assert(math.abs(df.collect()(0).getDouble(0) - 0.5) < 1e-12)
  }

  test("withFeatures builds the array in spec order") {
    val specs = Seq(JaccardTokens("a1", "t"), NumericSim("num1", "p"))
    val df = pairDf(Seq(("a b", "a b", "", "", 10.0, 20.0)))
    val f = FeatureVectors.withFeatures(df, specs).select("features").collect()(0).getSeq[Double](0)
    assert(f(0) == 1.0 && math.abs(f(1) - 0.5) < 1e-12)
  }

  test("all generated features are within [0,1] on the tiny corpus") {
    val ds = TestData.camera
    val bad = ds.pairs.select(explode($"features") as "f")
      .filter($"f" < 0 || $"f" > 1 || $"f".isNull).count()
    assert(bad == 0)
  }

  test("matched pairs have higher mean title similarity than non-matches") {
    val ds = TestData.camera
    val m = ds.pairs.groupBy("label")
      .agg(avg($"features".getItem(0)) as "t").collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(m(1) > m(0) + 0.2, s"match ${m(1)} vs nonmatch ${m(0)}")
  }
}
