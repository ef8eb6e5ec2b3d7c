package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.al.ALConfig
import repro.core._
import repro.eval.Experiments

/** Development smoke run: generator stats + a tiny MoRER round trip.
  * Not part of the reproduction tables; kept as a quick sanity check
  * (`sbt "runMain repro.jobs.Smoke"`).
  */
object Smoke {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master("local[*]").appName("smoke")
      .config("spark.sql.shuffle.partitions", "32")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")

    for (name <- Seq("dexter", "wdc", "music")) {
      val t0 = System.nanoTime()
      val b = Experiments.load(spark, name, 1.0)
      val ds = b.ds
      val nPairs = ds.pairs.count()
      val nMatch = ds.pairs.filter(col("label") === 1).count()
      val nRec   = ds.records.count()
      val nProb  = ds.pairs.select("problemId").distinct().count()
      println(f"$name%-8s records=$nRec%7d problems=$nProb%4d (expected ${ds.problems.size})" +
        f" pairs=$nPairs%9d matches=$nMatch%8d (${100.0 * nMatch / math.max(1, nPairs)}%.1f%%)" +
        f" gen=${(System.nanoTime() - t0) / 1e9}%.1fs")
      Experiments.unload(b)
    }

    // tiny MoRER round trip on a small dexter
    val b = Experiments.load(spark, "dexter", 0.3)
    val t0 = System.nanoTime()
    val res = MoRER.run(spark, b.ds, b.initIds, b.unsolvedIds,
      MoRERConfig(bTot = 300, bMin = 5, alConfig = ALConfig(batchSize = 30, initSize = 20)))
    println(f"MoRER smoke: F1=${res.f1}%.3f labels=${res.labelsSpent} " +
      f"clusters=${res.repo.numClusters} time=${(System.nanoTime() - t0) / 1e9}%.1fs")
    spark.stop()
  }
}
