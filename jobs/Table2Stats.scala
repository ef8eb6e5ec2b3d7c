package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiments

/** Reproduces Table 2 (dataset statistics) at paper scale and dumps the
  * Table 3 parameter grid. `spark-submit --class repro.jobs.Table2Stats`.
  */
object Table2Stats {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session("table2")
    val stats = Experiments.table2(spark, sf = 1.0)
    println("== Table 2: dataset statistics (paper: dexter 276/1100K/368K, " +
      "wdc 12/74.5K/4.8K, music 20/385.9K/16.2K) ==")
    stats.foreach { s =>
      println(f"${s.name}%-8s problems=${s.problems}%4d pairs=${s.pairs}%9d matches=${s.matches}%8d" +
        f" (${100.0 * s.matches / math.max(1, s.pairs)}%.1f%%)")
    }
    println()
    println("== Table 3: MoRER parameter grid (defaults in bold in the paper) ==")
    println("ratio_init        : 50% (default), 30%")
    println("distribution test : KS (default), WD, PSI")
    println("clustering        : Leiden (default); label propagation not reproduced")
    println("model generation  : AL (default); supervised not reproduced")
    println("AL method         : Bootstrap (default), Almser")
    println("selection method  : sel_base (default), sel_cov")
    spark.stop()
  }
}

/** Shared session builder for the job entrypoints. */
object JobSpark {
  def session(name: String): SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", value = false)
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}
